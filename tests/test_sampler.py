import hashlib
import math
from collections import Counter

import numpy as np
import pytest

import sampler_reference
from dyckrnn import sampler
from dyckrnn.automaton import DyckParams, depth, format_string, is_member
from dyckrnn.sampler import (SamplerConfig, corpus_statistics, default_max_len,
                             format_corpus, parse_corpus, sample_corpus,
                             sample_string, sample_strings, window_log_mass)


def test_every_sample_is_a_member():
    for k, m in [(1, 1), (2, 3), (8, 3)]:
        p = DyckParams(k, m)
        cfg = SamplerConfig(p, seed=5)
        for string in sample_strings(cfg, 200):
            assert is_member(p, string)


def test_depths_never_exceed_bound():
    p = DyckParams(2, 3)
    for string in sample_strings(SamplerConfig(p, seed=9), 300):
        body = string[:-1]
        for t in range(len(body) + 1):
            assert 0 <= depth(body[:t]) <= 3


def test_same_seed_same_corpus():
    cfg = SamplerConfig(DyckParams(2, 3), seed=7)
    first = sample_corpus(cfg, 2000)
    second = sample_corpus(cfg, 2000)
    assert first == second


def test_different_seeds_differ():
    p = DyckParams(2, 3)
    a = sample_corpus(SamplerConfig(p, seed=1), 500)
    b = sample_corpus(SamplerConfig(p, seed=2), 500)
    assert a != b


@pytest.mark.parametrize("k,m,seed,window,draw,digest", [
    (2, 3, 7, {}, lambda cfg: sample_corpus(cfg, 1000),
     "20bf30db9a24af258166a9bdc0b0fa0c229abe49cc898e70fc841bed3fd7ad1a"),
    (8, 3, 2026, {}, lambda cfg: sample_strings(cfg, 1000),
     "6c5c3dbb14b470b0bc3650d1a78e351dedd0db3d06343d32ebd78bb1637b785e"),
    (128, 5, 2027, {"min_len": 181, "max_len": 360},
     lambda cfg: sample_corpus(cfg, 100_000),
     "0240065bcc78343f1f7f47514cbfa2613bb0a967bcb971cfe44145c6c7851638"),
    # the window outlasts the converged rows (447 at m=3), so every string
    # starts on the far row
    (2, 3, 31, {"max_len": 2000}, lambda cfg: sample_corpus(cfg, 20_000),
     "e97bdc2b3e91c6b691c227eef38bbf66dcc0c73efa36b77ba53e828348561f73"),
], ids=["k2-m3-seed7", "corpus-checks", "sample-metric", "far-row"])
def test_draws_match_the_recorded_corpora(k, m, seed, window, draw, digest):
    """A seed's corpus is part of the file contract: the same seed and
    window write the same bytes across versions, so a change to how the
    uniforms are drawn or read shows here."""
    cfg = SamplerConfig(DyckParams(k, m), seed=seed, **window)
    text = format_corpus(cfg, draw(cfg))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_sample_string_deterministic():
    cfg = SamplerConfig(DyckParams(3, 2), seed=123)
    assert sample_string(cfg) == sample_string(cfg)


def test_single_string_views_agree():
    cfg = SamplerConfig(DyckParams(3, 2), seed=123)
    assert sample_string(cfg) == sample_strings(cfg, 1)[0] == sample_corpus(cfg, 1)[0]


def test_no_string_drawn_past_the_last_kept(monkeypatch):
    import dyckrnn.sampler as sampler
    calls = []
    original = sampler._sample_codes

    def counting(cfg, rand):
        calls.append(1)
        return original(cfg, rand)

    monkeypatch.setattr(sampler, "_sample_codes", counting)
    cfg = SamplerConfig(DyckParams(2, 3), seed=3)
    corpus = sample_corpus(cfg, 1000)
    assert len(calls) == len(corpus)
    calls.clear()
    assert len(sample_strings(cfg, 25)) == 25
    assert len(calls) == 25


def test_corpus_reaches_token_count():
    cfg = SamplerConfig(DyckParams(2, 3), seed=0)
    corpus = sample_corpus(cfg, 5000)
    total = sum(len(s) for s in corpus)
    assert total >= 5000
    # no overshoot beyond one string
    assert total - len(corpus[-1]) < 5000


def test_length_window_respected():
    cfg = SamplerConfig(DyckParams(2, 5), seed=4, min_len=11, max_len=41)
    for string in sample_strings(cfg, 100):
        assert 11 <= len(string) <= 41


def test_default_windows():
    assert default_max_len(3) == 84
    assert default_max_len(5) == 180
    assert SamplerConfig(DyckParams(2, 3), seed=0).max_len == 84
    assert SamplerConfig(DyckParams(2, 5), seed=0).max_len == 180


def test_empty_window_refused_before_any_draw():
    # every string has odd length, so a [2,2] window has zero mass
    cfg = SamplerConfig(DyckParams(1, 1), seed=0, min_len=2, max_len=2)
    assert window_log_mass(cfg) == -math.inf

    class NoDraws:
        def random(self, *args, **kwargs):
            raise AssertionError("drew from the generator")

    with pytest.raises(RuntimeError, match=r"k=1, m=1 .* \[2, 2\]"):
        sample_string(cfg, NoDraws())
    with pytest.raises(RuntimeError, match=r"\[2, 2\]"):
        sample_corpus(cfg, 10)


def _window_law(k, m, min_len, max_len):
    """Every string inside the window with its probability under the
    unconditioned walk, by depth-first search over the walk's choices."""
    law = {}

    def grow(text, stack, p):
        n = len(text)
        if n >= max_len:
            return
        d = len(stack)
        if d == m:
            grow(text + [f"){stack[-1]}"], stack[:-1], p)
            return
        free = 0.5
        if d == 0:
            if n + 1 >= min_len:
                law[" ".join(text + ["$"])] = free * p
        else:
            grow(text + [f"){stack[-1]}"], stack[:-1], free * p)
        for i in range(1, k + 1):
            grow(text + [f"({i}"], stack + [i], free * p / k)

    grow([], [], 1.0)
    return law


def _chi2_z(stat, dof):
    """Wilson-Hilferty normal score of a chi-square statistic."""
    c = 2 / (9 * dof)
    return ((stat / dof) ** (1 / 3) - (1 - c)) / math.sqrt(c)


def test_window_mass_is_the_windows_probability():
    for k, m, lo, hi in [(1, 1, 1, 3), (2, 2, 5, 9), (1, 3, 9, 21), (3, 2, 1, 1)]:
        cfg = SamplerConfig(DyckParams(k, m), seed=0, min_len=lo, max_len=hi)
        want = math.fsum(_window_law(k, m, lo, hi).values())
        assert math.isclose(math.exp(window_log_mass(cfg)), want, rel_tol=1e-12)


@pytest.mark.parametrize("k, m, lo, hi", [
    (2, 2, 5, 9),    # 168 strings
    (1, 2, 9, 11),   # 24 strings; the walk's first rows repeat the 2-cycle
])
def test_tilted_frequencies_match_exact_law(k, m, lo, hi):
    """The tilted walk draws each window string with its conditional
    probability (chi-square over every string of the window)."""
    law = _window_law(k, m, lo, hi)
    mass = math.fsum(law.values())
    n = 20_000
    cfg = SamplerConfig(DyckParams(k, m), seed=11, min_len=lo, max_len=hi)
    counts = Counter(format_string(s) for s in sample_strings(cfg, n))
    assert set(counts) <= set(law)
    stat = sum((counts[s] - n * p / mass) ** 2 / (n * p / mass)
               for s, p in law.items())
    assert abs(_chi2_z(stat, len(law) - 1)) < 3.5


def test_tilted_frequencies_match_rejection_oracle():
    """Same window, same number of strings: the tilted walk and the
    rejection sampler it replaced agree string by string (two-sample
    chi-square)."""
    n = 20_000
    cfg = SamplerConfig(DyckParams(2, 2), seed=12, min_len=5, max_len=9)
    tilted = Counter(format_string(s) for s in sample_strings(cfg, n))
    rejected = Counter(format_string(s)
                       for s in sampler_reference.sample_strings(cfg, n))
    strings = set(tilted) | set(rejected)
    stat = sum((tilted[s] - rejected[s]) ** 2 / (tilted[s] + rejected[s])
               for s in strings)
    assert abs(_chi2_z(stat, len(strings) - 1)) < 3.5


def _plain_backward_pass(m, lo, hi):
    """First-option probability at every (t, d) of a window, and the
    window's mass, from a backward pass over every t without caps or
    scaling (fine while the mass stays far above the smallest double)."""
    mass = [0.0] * (m + 1)
    rows = [None] * hi
    for t in range(hi - 1, -1, -1):
        end = 1.0 if t + 1 >= lo else 0.0
        pairs = [(end, mass[1])] + [(mass[d + 1], mass[d - 1]) for d in range(1, m)]
        rows[t] = [a / (a + b) if a + b else None for a, b in pairs]
        mass = ([0.5 * (end + mass[1])]
                + [0.5 * (mass[d + 1] + mass[d - 1]) for d in range(1, m)]
                + [mass[m - 1]])
    return rows, mass[0]


@pytest.mark.parametrize("k, m, lo, hi", [(3, 3, 120, 130), (2, 3, 201, 201),
                                          (2, 5, 181, 360), (1, 1, 40, 90)])
def test_walk_reads_the_plain_backward_pass(k, m, lo, hi):
    """Every free choice of a walk compares its uniform with the probability
    a plain backward pass gives for that (t, d), also where the table's
    rows have stopped and repeat; the window masses agree too."""
    seen = []

    class Probe(float):
        def __lt__(self, other):
            seen.append(other)
            return float(self) < other

        def __ge__(self, other):
            seen.append(other)
            return float(self) >= other

    class Draws:
        tilt = sampler._tilt(m, lo, hi)
        rng = np.random.default_rng(5)

        def __call__(self):
            return Probe(self.rng.random())

    assert len(Draws.tilt.before) < lo - 1  # the 2-cycle is reached
    want, mass = _plain_backward_pass(m, lo, hi)
    assert math.isclose(math.exp(Draws.tilt.log_mass), mass, rel_tol=1e-9)
    for _ in range(20):
        seen.clear()
        codes = sampler._attempt(k, m, hi, Draws())
        assert lo <= len(codes) <= hi
        got, depth = iter(seen), 0
        for t, code in enumerate(codes):
            if depth < m:
                assert math.isclose(next(got), want[t][depth], rel_tol=1e-9)
            depth += 1 if code < k else -1
        assert next(got, None) is None


def test_thin_window_holds_strings():
    """A one-length window whose mass is 3.5e-12 is sampled, not refused."""
    p = DyckParams(2, 3)
    cfg = SamplerConfig(p, seed=0, min_len=301, max_len=301)
    mass = _plain_backward_pass(3, 301, 301)[1]
    assert 3.5e-12 < mass < 3.6e-12
    assert math.isclose(math.exp(window_log_mass(cfg)), mass, rel_tol=1e-9)
    for string in sample_strings(cfg, 5):
        assert len(string) == 301 and is_member(p, string)


def test_underflowing_window_mass_is_not_empty():
    """The mass of [10001, 10001] underflows a double (about 1e-345); the
    log-scaled pass still finds the window's strings."""
    p = DyckParams(2, 3)
    cfg = SamplerConfig(p, seed=0, min_len=10001, max_len=10001)
    assert -800 < window_log_mass(cfg) < -790
    string = sample_string(cfg)
    assert len(string) == 10001 and is_member(p, string)


def test_tilt_table_does_not_grow_with_the_window_edges():
    """The rows stop where the backward pass stops changing, so windows whose
    edges lie ten thousand or a billion tokens away have as many."""
    for near, far in [((1, 10**4), (1, 10**9)),
                      ((10**4, 10**4), (10**9, 10**9)),
                      ((10**4, 2 * 10**4), (10**9, 2 * 10**9))]:
        a, b = sampler._tilt(3, *near), sampler._tilt(3, *far)
        assert (len(a.before), len(a.inside)) == (len(b.before), len(b.inside))
        assert len(b.before) + len(b.inside) < 1000


def test_bad_window_rejected():
    with pytest.raises(ValueError):
        SamplerConfig(DyckParams(1, 1), seed=0, min_len=9, max_len=3)


def _decision_stats(strings, m):
    """Recover the action taken at each decision point of each walk."""
    empty_end = empty_push = mid_push = mid_pop = 0
    push_types: dict[int, int] = {}
    for string in strings:
        d = 0
        for token in string:
            if d == 0:
                if token.kind == "end":
                    empty_end += 1
                else:
                    empty_push += 1
            elif d < m:
                if token.kind == "open":
                    mid_push += 1
                else:
                    mid_pop += 1
            # at d == m the pop is forced; not a decision
            if token.kind == "open":
                push_types[token.index] = push_types.get(token.index, 0) + 1
                d += 1
            elif token.kind == "close":
                d -= 1
    return empty_end, empty_push, mid_push, mid_pop, push_types


def test_action_frequencies_uniform():
    """With a wide-open window (no rejection bias), realized action
    frequencies at each decision point are uniform to within 1% over 1e5
    decisions, and bracket types are uniform within 3 sigma."""
    p = DyckParams(4, 3)
    cfg = SamplerConfig(p, seed=31, min_len=1, max_len=10**9)
    corpus = sample_corpus(cfg, 120_000)
    empty_end, empty_push, mid_push, mid_pop, push_types = _decision_stats(
        corpus, p.m)

    n_empty = empty_end + empty_push
    assert n_empty >= 10**5 / 4
    assert abs(empty_end / n_empty - 0.5) <= 0.01

    n_mid = mid_push + mid_pop
    assert abs(mid_push / n_mid - 0.5) <= 0.01

    n_push = sum(push_types.values())
    expected = n_push / p.k
    sigma = math.sqrt(n_push * (1 / p.k) * (1 - 1 / p.k))
    for i in range(1, p.k + 1):
        assert abs(push_types.get(i, 0) - expected) <= 3 * sigma


def test_corpus_file_round_trip(tmp_path):
    p = DyckParams(2, 3)
    cfg = SamplerConfig(p, seed=17)
    corpus = sample_corpus(cfg, 800)
    text = format_corpus(cfg, corpus)
    header, strings = parse_corpus(text)
    assert header["k"] == 2 and header["m"] == 3 and header["seed"] == 17
    assert header["min_len"] == 1 and header["max_len"] == 84
    assert header["prng"] == "numpy-pcg64"
    assert strings == corpus


def test_corpus_header_schema():
    cfg = SamplerConfig(DyckParams(2, 3), seed=7)
    assert format_corpus(cfg, []).startswith("# dyckrnn-corpus schema=2 ")
    # corpora written by the rejection sampler (schema 1) still read
    header, strings = parse_corpus(
        "# dyckrnn-corpus schema=1 k=2 m=3 seed=7 min_len=1 max_len=84 "
        "prng=numpy-pcg64\n(1 )1 $\n")
    assert header["schema"] == 1 and len(strings) == 1


def test_strings_share_vocabulary_tokens():
    """Sampled and parsed strings reuse one Token per vocabulary item."""
    p = DyckParams(2, 3)
    cfg = SamplerConfig(p, seed=17)
    corpus = sample_corpus(cfg, 400)
    _, parsed = parse_corpus(format_corpus(cfg, corpus))
    for strings in (corpus, parsed):
        tokens = [t for s in strings for t in s]
        assert len({id(t) for t in tokens}) == len(set(tokens)) <= 2 * p.k + 1


def test_no_strings_refused():
    cfg = SamplerConfig(DyckParams(2, 2), seed=0)
    for n in (0, -3):
        with pytest.raises(ValueError, match="n_strings"):
            sample_strings(cfg, n)


def test_corpus_missing_header_rejected():
    with pytest.raises(ValueError, match="header"):
        parse_corpus("(1 )1 $\n")


def test_corpus_statistics():
    from dyckrnn.automaton import parse_string
    p = DyckParams(1, 2)
    corpus = [parse_string("(1 (1 )1 )1 $"),  # hits full depth after 2 tokens
              parse_string("(1 )1 $")]        # never reaches full depth
    stats = corpus_statistics(p, corpus)
    assert stats["strings"] == 2 and stats["tokens"] == 8
    assert stats["hitting_observations"] == 1
    assert stats["mean_hitting_time"] == 2.0


def test_hitting_time_reported_on_sampled_corpus():
    p = DyckParams(2, 3)
    corpus = sample_strings(SamplerConfig(p, seed=6), 500)
    stats = corpus_statistics(p, corpus)
    assert stats["hitting_observations"] > 0
    # empty-to-full needs at least m pushes
    assert stats["mean_hitting_time"] >= p.m
