"""The integer corpus (automaton.Corpus): its items, its nesting arrays, and
parity between one corpus given as Token strings and as a Corpus."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus_reference as reference
from conftest import zero_close_rows
from dyckrnn import runtime
from dyckrnn.automaton import (EMPTY, REJECT, Corpus, DyckParams, format_string,
                               parse_string, run, transition, vocabulary)
from dyckrnn.builders import build
from dyckrnn.cli import main
from dyckrnn.encodings import BINARY, ONEHOT
from dyckrnn.sampler import (SamplerConfig, corpus_header, corpus_statistics,
                             format_corpus, parse_corpus, sample_corpus,
                             sample_strings)
from dyckrnn.verify import (check_corpus_suites, closing_metric,
                            closing_metric_uniform)

ALL_CONSTRUCTIONS = [("simple", ONEHOT), ("simple", BINARY), ("lstm", ONEHOT),
                     ("lstm", BINARY), ("naive", None)]


def random_strings(k, n, seed, max_len=12):
    """Token strings of uniformly drawn symbols, most outside the language."""
    rng = np.random.default_rng(seed)
    vocab = vocabulary(k)
    return [tuple(vocab[c] for c in rng.integers(0, 2 * k + 1,
                                                  rng.integers(0, max_len)))
            for _ in range(n)]


def mutated(k, strings, seed):
    """Each string with one symbol redrawn uniformly, so that many stay
    well nested and the rest fail at one place."""
    rng = np.random.default_rng(seed)
    vocab, out = vocabulary(k), []
    for s in strings:
        s = list(s)
        s[rng.integers(len(s))] = vocab[rng.integers(2 * k + 1)]
        out.append(tuple(s))
    return out


@st.composite
def member_prefixes(draw, k, m):
    """A prefix of a depth-m member string; one that returns to depth 0 may
    go on with its end mark and then any symbols."""
    vocab, stack, string = vocabulary(k), [], []
    for pick in draw(st.lists(st.integers(0, k), max_size=14)):
        allowed = list(range(k)) if len(stack) < m else []
        if stack:
            allowed.append(k + stack[-1] - 1)
        row = allowed[pick % len(allowed)]
        if row < k:
            stack.append(row + 1)
        else:
            stack.pop()
        string.append(vocab[row])
    if not stack and draw(st.booleans()):
        tail = draw(st.lists(st.integers(0, 2 * k), max_size=4))
        string += [vocab[2 * k]] + [vocab[row] for row in tail]
    return tuple(string)


@st.composite
def member_corpora(draw):
    k, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return k, m, draw(st.lists(member_prefixes(k, m), max_size=6))


def outcome(fn, *args):
    """fn's result, or ("raised", message) for the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return ("raised", str(exc))


class TestItems:
    def test_items_read_as_token_tuples(self):
        p = DyckParams(3, 2)
        corpus = sample_strings(SamplerConfig(p, seed=4), 40)
        strings = list(corpus)
        assert isinstance(corpus, Corpus) and len(corpus) == 40
        assert all(type(s) is tuple for s in strings)
        assert corpus[0] == strings[0] and corpus[-1] == strings[-1]
        assert corpus[np.int64(7)] == strings[7]
        with pytest.raises(IndexError):
            corpus[40]
        assert corpus.codes.size == sum(len(s) for s in strings)
        assert np.array_equal(np.diff(corpus.offsets), [len(s) for s in strings])

    def test_slices(self):
        corpus = sample_strings(SamplerConfig(DyckParams(2, 3), seed=1), 30)
        strings = list(corpus)
        for part in (slice(3, 11), slice(None, None, -2), slice(29, 40),
                     slice(5, 5)):
            assert isinstance(corpus[part], Corpus)
            assert list(corpus[part]) == strings[part]

    def test_equality(self):
        cfg = SamplerConfig(DyckParams(2, 3), seed=3)
        corpus = sample_strings(cfg, 12)
        assert corpus == sample_strings(cfg, 12)
        assert corpus == list(corpus) and list(corpus) == corpus
        assert corpus == [list(s) for s in corpus]
        assert corpus != corpus[:11] and corpus != list(corpus)[::-1]
        # the same strings over more bracket types are other codes, equal items
        wider = Corpus.of(5, corpus)
        assert not np.array_equal(wider.codes, corpus.codes)
        assert wider == corpus

    def test_of_encodes_once(self):
        corpus = sample_strings(SamplerConfig(DyckParams(2, 3), seed=3), 12)
        assert Corpus.of(2, corpus) is corpus
        again = Corpus.of(2, list(corpus))
        assert again == corpus and again is not corpus
        assert np.array_equal(again.codes, corpus.codes)
        empty = Corpus.of(2, [])
        assert len(empty) == 0 and empty.codes.size == 0 and list(empty) == []

    def test_of_refuses_an_index_above_k(self):
        with pytest.raises(ValueError, match="out of range for k=2"):
            Corpus.of(2, [parse_string("(1 )1 $"), parse_string("(3 )3 $")])
        with pytest.raises(ValueError, match="out of range for k=2"):
            Corpus.of(2, Corpus.of(3, [parse_string("(3 )3 $")]))

    def test_items_share_vocabulary_tokens(self):
        corpus = Corpus.of(2, [parse_string("(1 (2 )2 )1 $")] * 3)
        assert ({id(t) for s in corpus for t in s}
                <= {id(t) for t in vocabulary(2)})


class TestNesting:
    def test_depths(self):
        corpus = Corpus.of(2, [parse_string("(1 (2 )2 )1 $"), (),
                               parse_string(")1 (2 $")])
        assert corpus.depths().tolist() == [1, 2, 1, 0, 0, -1, 0, 0]

    def test_matches(self):
        corpus = Corpus.of(2, [parse_string("(1 (2 )2 (1 )1 )1 $"),
                               parse_string("(2 )2 $")])
        _, match = corpus.nesting()
        assert match.tolist() == [-1, -1, 1, -1, 3, 0, -1, -1, 7, -1]
        # a close with nothing open matches nothing, even where an earlier
        # string left an open at depth 0
        _, match = Corpus.of(2, [parse_string(")1 (1"),
                                 parse_string(")1 $")]).nesting()
        assert match.tolist() == [-1, -1, -1, -1]

    @settings(max_examples=200, deadline=None)
    @given(member_corpora())
    def test_edges_match_the_token_loop(self, drawn):
        """The automaton edges the strings use are their distinct (stack,
        token) pairs before each first end mark, whatever follows it."""
        k, m, strings = drawn
        used = set()
        for string in strings:
            for t, token in enumerate(string):
                if token.kind == "end":
                    break
                used.add((run(DyckParams(k, m), string[:t]).stack, token))
        assert Corpus.of(k, strings).edges(m) == len(used)

    @staticmethod
    def scan(params, string):
        """(first REJECT place or the length, tokens before the first end
        mark) from the transition function, one token at a time."""
        state, rejected, consumed = EMPTY, len(string), len(string)
        for place, token in enumerate(string):
            if token.kind == "end":
                consumed = min(consumed, place)
            state = transition(params, state, token)
            if state == REJECT:
                rejected = min(rejected, place)
        return rejected, consumed

    @pytest.mark.parametrize("k,m", [(2, 3), (3, 2)])
    @pytest.mark.parametrize("seed", range(6))
    def test_rejections_match_the_transition_loop(self, k, m, seed):
        params = DyckParams(k, m)
        vocab = vocabulary(k)
        end, open1, close1 = vocab[2 * k], vocab[0], vocab[k]
        strings = (random_strings(k, 40, seed) + mutated(
            k, sample_strings(SamplerConfig(params, seed=seed), 60), seed)
            + [(), (end, end, open1), (open1, end, close1, end)])
        members = sum(self.scan(params, s)[0] == len(s) for s in strings)
        ended = sum(self.scan(params, s)[1] < len(s) for s in strings)
        assert 0 < members < len(strings) and 0 < ended < len(strings)
        for corpus in (strings, strings[::-1], strings[:1]):
            corpus = Corpus.of(k, corpus)
            want = [self.scan(params, s) for s in corpus]
            got = list(zip(corpus.rejections(m).tolist(),
                           corpus.consumed().tolist()))
            assert got == want

    @pytest.mark.parametrize("seed", range(6))
    def test_separations_match_the_token_loop(self, seed):
        """On random strings the first close that matches nothing is found
        where the Token loop finds it; otherwise the scores agree."""
        params = DyckParams(2, 3)
        strings = (random_strings(2, 20, seed) + mutated(
            2, sample_strings(SamplerConfig(params, seed=seed), 40), seed))
        nested = [s for s in strings if not isinstance(
            outcome(reference.closing_metric_uniform, params, [s]), tuple)]
        assert 10 < len(nested) < len(strings)
        for corpus in (strings, strings[::-1], strings[20:], nested,
                       strings[:3]):
            want = outcome(reference.closing_metric_uniform, params, corpus, 0.4)
            for given in (corpus, Corpus.of(2, corpus)):
                got = outcome(closing_metric_uniform, params, given, 0.4)
                assert repr(got) == repr(want)

    @pytest.mark.parametrize("seed", range(4))
    def test_statistics_match_the_token_loop(self, seed):
        params = DyckParams(2, 3)
        strings = random_strings(2, 60, seed, max_len=20)
        sampled = sample_corpus(SamplerConfig(params, seed=seed), 3000)
        for corpus in (strings, sampled, strings[:1], []):
            want = reference.corpus_statistics(params, list(corpus))
            got = corpus_statistics(params, corpus)
            assert repr(got) == repr(want)


class TestCorpusParity:
    """One corpus, given as Token strings and as a Corpus, reads the same
    everywhere."""

    @staticmethod
    def corpus(p):
        strings = list(sample_strings(SamplerConfig(p, seed=8), 150))
        return strings + [(), parse_string("(1 (2"), parse_string("$")]

    @pytest.mark.parametrize("arch,enc", ALL_CONSTRUCTIONS)
    def test_walk(self, arch, enc):
        p = DyckParams(2, 3)
        net = build(arch, p, enc)
        strings = self.corpus(p)

        def steps(corpus):
            return [(rows.tolist(), codes.tolist(), t, h.tobytes(),
                     None if c is None else c.tobytes(),
                     None if acts is None else acts.tobytes())
                    for rows, codes, t, h, c, acts in runtime.walk(net, corpus)]

        assert steps(strings) == steps(Corpus.of(2, strings))

    def test_walk_stops_at_the_first_end_mark(self):
        p = DyckParams(2, 3)
        net = build("lstm", p, BINARY)
        ended = [parse_string("(1 )1 $"), parse_string("(2 (1 )1 )2 $")]
        trailing = [ended[0] + parse_string("(2 )2 $"),
                    ended[1] + parse_string("(1 (1")]

        def steps(corpus):
            return [(rows.tolist(), codes.tolist(), t, h.tobytes(), c.tobytes())
                    for rows, codes, t, h, c, _ in runtime.walk(net, corpus)]

        assert steps(trailing) == steps(ended)
        assert steps(Corpus.of(2, trailing)) == steps(ended)

    @pytest.mark.parametrize("arch,enc", ALL_CONSTRUCTIONS)
    @pytest.mark.parametrize("sabotage", [None, zero_close_rows])
    def test_suites_and_metrics(self, arch, enc, sabotage):
        p = DyckParams(2, 3)
        net = build(arch, p, enc)
        net = sabotage(net) if sabotage else net
        strings = list(sample_strings(SamplerConfig(p, seed=8), 150))
        corpus = Corpus.of(2, strings)
        assert ([r.as_dict() for r in check_corpus_suites(net, strings)]
                == [r.as_dict() for r in check_corpus_suites(net, corpus)])
        assert closing_metric(net, strings) == closing_metric(net, corpus)
        assert (closing_metric_uniform(p, strings)
                == closing_metric_uniform(p, corpus))
        assert corpus_statistics(p, strings) == corpus_statistics(p, corpus)

    def test_format_reads_the_codes(self):
        cfg = SamplerConfig(DyckParams(3, 2), seed=2)
        corpus = sample_corpus(cfg, 500)
        strings = list(corpus) + [()]
        text = "\n".join([corpus_header(cfg)]
                         + [format_string(s) for s in strings]) + "\n"
        assert format_corpus(cfg, strings) == text
        assert format_corpus(cfg, Corpus.of(3, strings)) == text


class TestCorpusFiles:
    # sha256 of the files `sample` wrote before corpora became code arrays
    DIGESTS = {
        (2, 3, 0): "6e182fb32af600a18bb80b36032304f3a1f871711f97f3230254e31f2f194c13",
        (2, 3, 1): "3a01fd018e7eb70124b39e1012d0cb0056b3c1ef90a15745c82f8a20c9a6b3aa",
        (2, 3, 2): "1e034f83a239360babda72bb29343fb121380f6bb78458bf6ca75bdfce2ad32f",
        (2, 3, 3): "9956c6280581c62ebb4ae042825548142044d9145c2111289be1821e9599cb6f",
        (128, 5, 0): "4e5f4117047aea9324d8e3f406c7babcd42ebc1d47ef0e6a5de62a28030ceac0",
        (128, 5, 1): "c0fa347e8cd3c651d895c00efab041c8e4368a1d3bee8aa3a2cd80a40eca6c0f",
        (128, 5, 2): "7d1fd83b392dd9d9f8b8a935c83d7d475d3f0329d0f422be1ed26f2d96b40854",
        (128, 5, 3): "51e2daf4bdb6463dcf76f4d22e42417ecaa3c7c08f356b4332e12b8e09924fce",
    }

    @pytest.mark.parametrize("k,m,seed", list(DIGESTS))
    def test_sample_writes_the_same_bytes(self, tmp_path, capsys, k, m, seed):
        path = tmp_path / "c.txt"
        argv = ["sample", "-k", str(k), "-m", str(m), "--seed", str(seed),
                "-o", str(path)]
        argv += (["--tokens", "100000", "--min-len", "181", "--max-len", "360"]
                 if k == 128 else ["--tokens", "5000"])
        assert main(argv) == 0
        data = path.read_bytes()
        assert hashlib.sha256(data).hexdigest() == self.DIGESTS[k, m, seed]
        header, corpus = parse_corpus(data.decode())
        assert format_corpus(SamplerConfig(DyckParams(k, m), seed=seed,
                                           min_len=header["min_len"],
                                           max_len=header["max_len"]),
                             corpus).encode() == data

    def test_parse_refuses_with_the_line_number(self):
        head = ("# dyckrnn-corpus schema=2 k=2 m=2 seed=0 min_len=1 "
                "max_len=60 prng=numpy-pcg64\n(1 )1 $\n\n")
        for line, message in (("(3 )3 $", "corpus line 4: bracket index 3 is "
                                          "out of range for k=2"),
                              ("(1 x $", "corpus line 4: position 2: "
                                         "unparseable token 'x'"),
                              ("$ $", "corpus line 4: position 1: end token "
                                      "before end of string")):
            with pytest.raises(ValueError) as info:
                parse_corpus(head + line + "\n")
            assert str(info.value) == message

    def test_parse_reads_what_parse_string_reads(self):
        _, corpus = parse_corpus("# dyckrnn-corpus k=2 m=2\n  (01 )1   $ \n"
                                 "(2 )2\n\n$\n")
        assert list(corpus) == [parse_string("(1 )1 $"), parse_string("(2 )2"),
                                parse_string("$")]
        assert corpus.k == 2
