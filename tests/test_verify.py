import json
import math

import numpy as np
import pytest

from dyckrnn import product, runtime, verify
from dyckrnn.automaton import (ACCEPT, Corpus, DyckParams, Token, allowed_tokens,
                               format_string, is_member, parse_string, run,
                               symbol_row, vocabulary)
from dyckrnn.builders import build, build_lstm, build_simple_rnn, enumerate_states
from dyckrnn.encodings import BINARY, ONEHOT
from dyckrnn.numerics import NumericConfig, epsilon_for
from dyckrnn.runtime import initial_state, step
from dyckrnn.sampler import SamplerConfig, sample_strings
from dyckrnn.verify import (Collision, QuantizedEncoder, allowed_row_mask,
                            check_corpus_suites,
                            check_cross_construction_agreement,
                            check_full_depth_distinctness,
                            check_generation_equivalence,
                            check_probability_margins,
                            check_saturation_exactness,
                            check_stack_correspondence, closing_metric,
                            closing_metric_uniform, dfa_membership_set,
                            find_collision, net_membership_set,
                            total_string_count)
from conftest import clone_with, flip_push_entry, zero_close_rows
from test_builders import _dense_lstm
import corpus_reference as reference
import enumeration_reference


class TestGenerationEquivalence:
    def test_smallest_instance(self):
        net = build_simple_rnn(DyckParams(1, 1))
        report = check_generation_equivalence(net, max_len=6)
        assert report.passed
        assert report.checked == total_string_count(1, 6)

    def test_lstm_instance(self):
        net = build_lstm(DyckParams(2, 2))
        assert check_generation_equivalence(net, max_len=8).passed

    def test_sabotaged_readout_fails_with_close_counterexample(self):
        net = zero_close_rows(build_lstm(DyckParams(2, 2)))
        report = check_generation_equivalence(net, max_len=8)
        assert not report.passed
        assert ")" in report.counterexample

    def test_epsilon_range(self):
        """Generation holds for a band of epsilon below the allowed/disallowed
        gap, not only at the canonical value."""
        net = build_simple_rnn(DyckParams(2, 2))
        for eps in (epsilon_for(2), 0.1, 0.06):
            assert check_generation_equivalence(net, max_len=6,
                                                epsilon=eps).passed

    def test_budget_guard(self):
        """The walk is refused once it holds more nodes than node_budget."""
        net = build_simple_rnn(DyckParams(2, 2))
        states = check_generation_equivalence(net, max_len=30).details["states"]
        assert check_generation_equivalence(net, max_len=30,
                                            node_budget=states).passed
        with pytest.raises(RuntimeError,
                           match=f"max_len=30 exceeded the node budget of "
                                 f"{states - 1}$"):
            check_generation_equivalence(net, max_len=30, node_budget=states - 1)

    @pytest.mark.parametrize("arch", ["simple", "lstm"])
    def test_past_depth_two(self, arch):
        """At (8, 3) there are over a million strings below length 6, but
        the product graph walk holds 1,259 nodes for the simple RNN and
        1,179 for the LSTM: within the budget."""
        p = DyckParams(8, 3)
        assert total_string_count(8, 6) > verify.DEFAULT_ENUMERATION_BUDGET
        report = check_generation_equivalence(build(arch, p, BINARY), max_len=6)
        assert report.passed and report.checked == total_string_count(8, 6)


def test_total_string_count_closed_form():
    """The closed form (2k)^L - 1 over 2k - 1 against the sum it replaces."""
    for k in range(1, 5):
        for max_len in range(1, 41):
            assert total_string_count(k, max_len) == sum(
                (2 * k) ** t for t in range(max_len))
    assert total_string_count(2, 7141) == sum(4**t for t in range(7141))


def test_language_walk_states():
    """The language-only walk holds one node per stack reachable at each
    depth t < max_len: the k^d stacks of every height d <= min(t, m) of
    t's parity."""
    for (k, m, max_len), states in {(2, 2, 7): 22, (3, 3, 9): 134,
                                    (8, 3, 8): 1_764, (1, 4, 10): 21}.items():
        sides = (product.Language(DyckParams(k, m)),)
        graph = product.walk_graph(sides, k, max_len,
                                   verify.DEFAULT_ENUMERATION_BUDGET).graph(0)
        assert graph.states == states == sum(
            k**d for t in range(max_len) for d in range(min(t, m) + 1)
            if d % 2 == t % 2), (k, m, max_len)


def test_listing_over_the_node_budget_refused():
    """A listing whose walk fits node_budget is still refused when it would
    list more strings than that: the LSTM's (2, 3) graph up to length 8
    holds 48 nodes, and its support 51 strings."""
    net = build_lstm(DyckParams(2, 3))
    graph = product.walk_graph((product.Support(net, epsilon_for(2)),), 2, 8,
                               verify.DEFAULT_ENUMERATION_BUDGET).graph(0)
    assert (graph.states, graph.sizes) == (48, [51])
    assert len(net_membership_set(net, 8, node_budget=51)) == 51
    with pytest.raises(RuntimeError, match="listing 51 strings up to max_len=8 "
                                           "exceeds the node budget of 50$"):
        net_membership_set(net, 8, node_budget=50)


def test_membership_sets_agree_with_oracle():
    p = DyckParams(2, 2)
    lang = dfa_membership_set(p, 8)
    assert all(is_member(p, s) for s in lang)
    net = build_simple_rnn(p)
    assert net_membership_set(net, 8) == lang


class TestStackCorrespondence:
    @pytest.mark.parametrize("arch", ["simple", "lstm"])
    def test_sampled_corpus(self, arch):
        p = DyckParams(8, 3)
        net = build(arch, p, BINARY)
        corpus = sample_strings(SamplerConfig(p, seed=21), 250)
        report = check_stack_correspondence(net, corpus)
        assert report.passed
        assert report.checked == sum(len(s) - 1 for s in corpus)

    def test_empty_corpus_vacuous(self):
        net = build_lstm(DyckParams(2, 2))
        report = check_stack_correspondence(net, [])
        assert report.passed and report.checked == 0

    def test_flipped_push_entry_fails(self):
        p = DyckParams(2, 2)
        net = flip_push_entry(build_simple_rnn(p))
        corpus = sample_strings(SamplerConfig(p, seed=3), 100)
        report = check_stack_correspondence(net, corpus)
        assert not report.passed
        assert report.counterexample


class TestProbabilityMargins:
    def test_onehot_small(self):
        p = DyckParams(2, 3)
        net = build_simple_rnn(p, ONEHOT)
        corpus = sample_strings(SamplerConfig(p, seed=8), 200)
        report = check_probability_margins(net, corpus)
        assert report.passed
        assert report.details["epsilon"] == pytest.approx(1 / 6)
        assert report.details["max_disallowed"] <= 1 / 20

    def test_binary_large(self):
        p = DyckParams(32, 3)
        net = build_lstm(p, BINARY)
        corpus = sample_strings(SamplerConfig(p, seed=8), 100)
        report = check_probability_margins(net, corpus)
        assert report.passed

    def test_zeroed_readout_fails(self):
        p = DyckParams(2, 2)
        net = zero_close_rows(build_simple_rnn(p))
        corpus = sample_strings(SamplerConfig(p, seed=5), 50)
        report = check_probability_margins(net, corpus)
        assert not report.passed

    @pytest.mark.parametrize("arch", ["simple", "lstm"])
    def test_nan_readout_fails(self, arch):
        """A NaN probability is neither at least epsilon nor at most the
        disallowed bound, so it fails the suite."""
        p = DyckParams(2, 2)
        net = build(arch, p, ONEHOT)
        b_v = net.b_v.copy()
        b_v[0] = np.nan
        corpus = sample_strings(SamplerConfig(p, seed=5), 50)
        assert check_probability_margins(net, corpus).passed
        report = check_probability_margins(clone_with(net, b_v=b_v), corpus)
        assert not report.passed
        assert report.checked == 1
        assert "min allowed nan" in report.counterexample

    def test_invalid_zeta_is_a_config_error_not_a_margin_failure(self):
        """Constants below the construction preconditions are refused at
        construction time, before any margin suite can run."""
        with pytest.raises(ValueError, match="zeta"):
            NumericConfig(beta=20.0, lam=60.0, zeta=2.4 / 0.7615941559557649)


def test_saturation_check_catches_soft_weights():
    p = DyckParams(2, 2)
    net = build_simple_rnn(p)
    corpus = sample_strings(SamplerConfig(p, seed=13), 100)
    assert check_saturation_exactness(net, corpus).passed
    softened = clone_with(net, W=net.W * 0.01, U=net.U * 0.01, b=net.b * 0.01)
    assert not check_saturation_exactness(softened, corpus).passed


class TestCorpusWalk:
    SINGLE = {"stack": check_stack_correspondence,
              "margins": check_probability_margins,
              "saturation": check_saturation_exactness}

    @staticmethod
    def softened(net):
        """Sabotage: scale every recurrent, input and bias array into the
        unsaturated range."""
        return clone_with(net, **{name: getattr(net, name) * 0.01
                                  for name in vars(net)
                                  if name[0] in "WUb" and name != "b_v"})

    def assert_combined_matches_separate(self, net, corpus):
        combined = check_corpus_suites(net, corpus, ("stack", "margins",
                                                     "saturation"))
        separate = [self.SINGLE[s](net, corpus)
                    for s in ("stack", "margins", "saturation")]
        assert [r.as_dict() for r in combined] == [r.as_dict() for r in separate]
        return combined

    @pytest.mark.parametrize("sabotage", [flip_push_entry, zero_close_rows,
                                          "softened"])
    @pytest.mark.parametrize("p", [DyckParams(2, 2), DyckParams(2, 3)])
    def test_sabotaged_walk_matches_separate_calls(self, sabotage, p):
        """The suites fail at different prefixes, or not at all, and each
        keeps its own count and counterexample."""
        net = build_simple_rnn(p)
        net = self.softened(net) if sabotage == "softened" else sabotage(net)
        corpus = sample_strings(SamplerConfig(p, seed=3), 60)
        reports = self.assert_combined_matches_separate(net, corpus)
        assert not all(r.passed for r in reports)

    @pytest.mark.parametrize("sabotage", [zero_close_rows, "softened"])
    def test_sabotaged_lstm_walk_matches_separate_calls(self, sabotage):
        p = DyckParams(2, 3)
        net = build_lstm(p, BINARY)
        net = self.softened(net) if sabotage == "softened" else sabotage(net)
        corpus = sample_strings(SamplerConfig(p, seed=5), 60)
        reports = self.assert_combined_matches_separate(net, corpus)
        assert not all(r.passed for r in reports)

    @pytest.mark.parametrize("arch,enc", [("simple", BINARY), ("lstm", ONEHOT),
                                          ("naive", None)])
    def test_intact_constructions_match_separate_calls(self, arch, enc):
        p = DyckParams(2, 3)
        net = build(arch, p, enc)
        corpus = sample_strings(SamplerConfig(p, seed=11), 80)
        reports = self.assert_combined_matches_separate(net, corpus)
        assert all(r.passed for r in reports)

    def test_reports_follow_requested_order(self):
        p = DyckParams(2, 2)
        net = build_lstm(p)
        corpus = sample_strings(SamplerConfig(p, seed=1), 20)
        reports = check_corpus_suites(net, corpus, ("saturation", "stack"))
        assert [r.suite for r in reports] == ["saturation_exactness",
                                              "stack_correspondence"]

    def test_no_suites_walk_nothing(self, monkeypatch):
        def no_step(*args):
            raise AssertionError("stepped a corpus for no suite")

        p = DyckParams(2, 2)
        corpus = sample_strings(SamplerConfig(p, seed=1), 20)
        for module in (product, runtime):
            monkeypatch.setattr(module, "step_rows", no_step)
        with pytest.raises(AssertionError, match="stepped a corpus"):
            check_corpus_suites(build_lstm(p), corpus, ("stack",))
        assert check_corpus_suites(build_lstm(p), corpus, ()) == []

    @staticmethod
    def count_stepped_rows(monkeypatch):
        stepped = []
        real_step_rows = product.step_rows

        def counting_step_rows(paramset, h, c, cols):
            stepped.append(len(cols))
            return real_step_rows(paramset, h, c, cols)

        monkeypatch.setattr(product, "step_rows", counting_step_rows)
        return stepped

    @pytest.mark.parametrize("arch,enc", [("simple", ONEHOT), ("lstm", BINARY)])
    def test_one_step_per_edge(self, monkeypatch, arch, enc):
        """The corpus walk steps each distinct edge, a (network state,
        automaton stack) node and the token leaving it, once, in blocks of
        at most BLOCK_ROWS; the edges are counted here prefix by prefix.
        The walk is called directly: the corpus suites of this instance
        read the closed product graph instead."""
        p = DyckParams(4, 3)
        net = build(arch, p, enc)
        corpus = sample_strings(SamplerConfig(p, seed=7), 50)
        edges = set()
        for string in corpus:
            state = initial_state(net)
            for i, token in enumerate(string[:-1]):
                node = (state.h.tobytes(), state.c is not None and state.c.tobytes(),
                        run(p, string[:i]))
                edges.add((node, token))
                state, _ = step(net, state, token)
        stepped = self.count_stepped_rows(monkeypatch)
        walk = product.walk_corpus(net, corpus, *verify.corpus_checks(
            net, verify.CORPUS_SUITES, epsilon_for(4)))
        verdicts = []
        with pytest.raises(StopIteration) as done:
            while True:
                verdicts.append(next(walk)[2])
        verdicts = np.concatenate(verdicts)
        assert verdicts.size == sum(len(s) for s in corpus)
        assert not (verdicts["stack"] | verdicts["saturation"]
                    | verdicts["margins"]).any()
        assert max(stepped) <= runtime.BLOCK_ROWS
        assert done.value.value == sum(stepped) == len(edges)
        assert len(edges) < sum(len(s) - 1 for s in corpus)
        assert check_corpus_suites(net, corpus)[0].details["walk"] == "closed"

    @pytest.mark.parametrize("arch", ["simple", "lstm"])
    def test_distinct_edges_at_scale(self, monkeypatch, arch):
        """At (8, 3), 10,000 strings consume 59,594 tokens, but their walk
        has fewer than 2,000 distinct edges."""
        p = DyckParams(8, 3)
        corpus = sample_strings(SamplerConfig(p, seed=1), 10_000)
        stepped = self.count_stepped_rows(monkeypatch)
        reports = check_corpus_suites(build(arch, p, BINARY), corpus)
        assert all(r.passed for r in reports)
        assert reports[0].checked == 59_594
        assert sum(stepped) < 2_000

    @pytest.mark.parametrize("arch,enc", [("simple", ONEHOT), ("simple", BINARY),
                                          ("lstm", ONEHOT), ("lstm", BINARY)])
    def test_closure_steps_its_graph_edges(self, monkeypatch, arch, enc):
        """The benchmark's (8, 3) corpus uses 990 of the automaton's 1,168
        edges, so the suites close the product graph and step each of its
        edges once: 1,816 for the simple RNN, and for the LSTM the
        automaton's own."""
        p = DyckParams(8, 3)
        corpus = sample_strings(SamplerConfig(p, seed=2026), 1000)
        assert (corpus.edges(3), product.automaton_edges(p)) == (990, 1168)
        stepped = self.count_stepped_rows(monkeypatch)
        reports = check_corpus_suites(build(arch, p, enc), corpus)
        edges = {"simple": 1816, "lstm": 1168}[arch]
        assert all(r.passed for r in reports)
        assert max(stepped) <= runtime.BLOCK_ROWS
        assert sum(stepped) == edges
        assert [(r.details["walk"], r.details["rows_stepped"])
                for r in reports] == [("closed", edges)] * 3

    @pytest.mark.parametrize("k,m,strings,arch", [
        (8, 5, 10_000, "simple"), (8, 5, 10_000, "lstm"),
        (128, 5, 100, "simple"), (128, 5, 100, "lstm")])
    def test_no_closure_where_it_does_not_pay(self, monkeypatch, k, m, strings,
                                              arch):
        """At (8, 5) 10,000 strings use 23,612 of the automaton's 74,896
        edges, and at (128, 5) the automaton has more edges than twice the
        tokens the corpus consumes, so they are not counted: the suites step
        only the rows the corpus walk steps alone."""
        p = DyckParams(k, m)
        net = build(arch, p, BINARY)
        corpus = sample_strings(SamplerConfig(p, seed=0), strings)
        if k == 128:
            def uncounted(*args):
                raise AssertionError("counted the corpus's edges")

            monkeypatch.setattr(Corpus, "_edges", uncounted)
        else:
            assert corpus.edges(m) == 23_612
        stepped = self.count_stepped_rows(monkeypatch)
        reports = check_corpus_suites(net, corpus)
        rows, stepped[:] = sum(stepped), []
        monkeypatch.setattr(product, "CLOSURE_SHARE", math.inf)
        assert check_corpus_suites(net, corpus) == reports
        assert all(r.passed for r in reports)
        assert rows == sum(stepped) > 0
        assert [(r.details["walk"], r.details["rows_stepped"])
                for r in reports] == [("corpus", rows)] * 3

    @pytest.mark.parametrize("k,m,arch,enc", [
        (4, 4, "simple", ONEHOT), (4, 4, "lstm", BINARY),
        (2, 3, "simple", BINARY), (2, 3, "lstm", ONEHOT)])
    def test_closed_walk_steps_nothing_after_the_closure(self, monkeypatch, k,
                                                         m, arch, enc):
        """Once the graph is closed, the corpus walk starts from its table
        and edges and only looks each position's node up: every row is
        stepped inside close_graph."""
        p = DyckParams(k, m)
        corpus = sample_strings(SamplerConfig(p, seed=2026), 1000)
        stepped = self.count_stepped_rows(monkeypatch)
        closures = []
        real_close_graph = product.close_graph

        def spied_close_graph(*args):
            closures.append((real_close_graph(*args), sum(stepped)))
            return closures[-1][0]

        monkeypatch.setattr(product, "close_graph", spied_close_graph)
        reports = check_corpus_suites(build(arch, p, enc), corpus)
        ((closure, at_close),) = closures
        assert closure.table is not None
        assert sum(stepped) == at_close == closure.edges > 0
        assert {(r.details["walk"], r.details["rows_stepped"])
                for r in reports} == {("closed", closure.edges)}


class TestTable:
    def test_new_rows_numbered_in_order_of_first_arrival(self):
        table = product._Table(np.float64, 2)
        rows = np.array([[1.0, 2.0], [0.0, -0.0], [1.0, 2.0], [0.0, 0.0],
                         [0.0, -0.0]])
        assert table.add(rows[:2]) == [0, 1]
        assert table.add(rows) == [0, 1, 0, 2, 1]
        assert table.add(rows[[3, 4, 4]]) == [2, 1, 1]
        assert table.add(np.array([[5.0, 6.0], [7.0, 8.0], [5.0, 6.0]])) == [3, 4, 3]
        assert len(table) == 5
        assert table.of([3, 0, 2]).tobytes() == np.array(
            [[5.0, 6.0], [1.0, 2.0], [0.0, 0.0]]).tobytes()
        # each row is held once: the id list and the index share its bytes
        assert all(table.keys[i] is key for key, i in table.index.items())

    def test_empty_renumbers_the_kept_rows(self):
        table = product._Table(np.uint8, 3)
        rows = np.arange(18, dtype=np.uint8).reshape(6, 3)
        table.add(rows)
        table.empty([0, 2, 5])
        assert len(table) == 3
        assert table.of(range(3)).tolist() == rows[[0, 2, 5]].tolist()
        assert table.add(rows[[5, 1, 0, 2]]) == [2, 3, 0, 1]
        table.empty()
        assert len(table) == 0 and table.index == {}
        assert table.add(rows[[4, 4]]) == [0, 0]


def softened(net):
    """Sabotage: scale every recurrent, input and bias array into the
    unsaturated range."""
    return TestCorpusWalk.softened(net)


def random_readout(net):
    """Sabotage: a random readout, so each close has its own logit weights
    and bias and the closes' renormalized probabilities spread out."""
    rng = np.random.default_rng(0)
    return clone_with(net, V=rng.normal(size=net.V.shape) * 0.5,
                      b_v=rng.normal(size=net.b_v.shape) * 2.0)


def expose_all_slots(lstm):
    """Sabotage: drop the output gate's recurrent block, so the hidden
    state shows every occupied slot while the cell keeps the stack."""
    return clone_with(lstm, W_o=np.zeros_like(lstm.W_o))


def relabeled(strings, index):
    """Single-type strings with every bracket turned into bracket `index`."""
    return [tuple(t if t.kind == "end" else type(t)(t.kind, index) for t in s)
            for s in strings]


ALL_CONSTRUCTIONS = [("simple", ONEHOT), ("simple", BINARY), ("lstm", ONEHOT),
                     ("lstm", BINARY), ("naive", None)]


class TestBlockWalkParity:
    """The block walk reports what the per-prefix reference loop reports;
    the margins extremes may differ by the order of the readout sums."""

    @staticmethod
    def assert_same_reports(batched, expected):
        """Equal report dicts, but for the walk that answered and the rows
        it stepped, which the reference loop does not report, and the
        margins extremes, whose readout sums may round with the rows that
        share a block product."""
        def plain(report):
            return dict(report, details={
                key: value for key, value in report["details"].items()
                if key not in ("walk", "rows_stepped")})

        batched, expected = list(map(plain, batched)), list(map(plain, expected))
        for got, want in zip(batched, expected):
            if got["suite"] == "probability_margins":
                for key in ("min_allowed", "max_disallowed"):
                    assert got["details"].pop(key) == pytest.approx(
                        want["details"].pop(key), abs=1e-12, rel=0)
        assert batched == expected

    @classmethod
    def assert_matches_reference(cls, net, corpus,
                                 suites=tuple(verify.CORPUS_SUITES)):
        batched = [r.as_dict() for r in check_corpus_suites(net, corpus, suites)]
        cls.assert_same_reports(batched, [
            r.as_dict() for r in reference.check_corpus_suites(net, corpus, suites)])
        return batched

    @pytest.mark.parametrize("arch,enc", [("simple", ONEHOT), ("simple", BINARY),
                                          ("lstm", ONEHOT), ("lstm", BINARY),
                                          ("naive", None)])
    def test_intact_constructions(self, arch, enc):
        p = DyckParams(2, 3)
        corpus = sample_strings(SamplerConfig(p, seed=4), 300)
        reports = self.assert_matches_reference(build(arch, p, enc), corpus)
        assert all(r["passed"] for r in reports)

    @pytest.mark.parametrize("arch,sabotage", [
        ("simple", flip_push_entry), ("simple", zero_close_rows),
        ("simple", softened), ("lstm", zero_close_rows), ("lstm", softened),
        ("lstm", expose_all_slots)])
    @pytest.mark.parametrize("seed", [3, 9])
    def test_sabotaged_constructions(self, arch, sabotage, seed):
        p = DyckParams(2, 3)
        net = sabotage(build(arch, p, BINARY if arch == "lstm" else ONEHOT))
        corpus = sample_strings(SamplerConfig(p, seed=seed), 200)
        reports = self.assert_matches_reference(net, corpus)
        assert not all(r["passed"] for r in reports)

    def test_first_failure_found_in_corpus_order(self):
        """Over 128 strings; the first failing string in corpus order is
        short, so it is stepped in the last block, while a longer failing
        string after it is stepped in the first block."""
        p = DyckParams(2, 3)
        net = flip_push_entry(build_simple_rnn(p))  # breaks pushes onto (1
        base = relabeled(sample_strings(
            SamplerConfig(p, seed=6, min_len=9, max_len=30), 300), 2)
        short = parse_string("(1 (2 )2 )1 $")
        long = parse_string(" ".join(["(2 )2"] * 20) + " (1 (1 )1 )1 $")
        corpus = base[:200] + [short] + base[200:250] + [long] + base[250:]
        assert all(len(s) > len(short) for s in base)
        assert len(long) > max(len(s) for s in base)
        assert all(r.passed for r in check_corpus_suites(net, base))
        reports = self.assert_matches_reference(net, corpus)
        stack = reports[0]
        assert not stack["passed"]
        assert stack["counterexample"].startswith("(1 (2 )2 )1 $ @ token 2")
        assert stack["checked"] == sum(len(s) - 1 for s in base[:200]) + 2

    def test_single_suites_and_requested_order(self):
        p = DyckParams(2, 3)
        net = softened(build_lstm(p, BINARY))
        corpus = sample_strings(SamplerConfig(p, seed=2), 150)
        for suites in (("margins",), ("saturation", "stack"),
                       ("stack", "margins", "stack")):
            self.assert_matches_reference(net, corpus, suites)

    def test_strings_without_end_mark_and_empty_strings(self):
        p = DyckParams(2, 3)
        net = zero_close_rows(build_simple_rnn(p))
        corpus = [(), parse_string("(1 (2"), parse_string("$"),
                  parse_string("(2 )2 $")]
        self.assert_matches_reference(net, corpus)

    def test_string_outside_the_language_refused(self):
        net = build_simple_rnn(DyckParams(2, 2))
        for text in ("(1 )2 $", "(1 (1 (1 )1 )1 )1 $", ")1 $"):
            with pytest.raises(ValueError, match="leaves the language"):
                check_corpus_suites(net, [parse_string("(1 )1 $"),
                                          parse_string(text)])

    def test_first_string_outside_in_corpus_order_refused(self):
        """The refusal names the first string in corpus order that leaves
        the language, as the closing metric does, though a longer string
        that leaves it later is walked in an earlier block."""
        p = DyckParams(2, 3)
        net = build_simple_rnn(p)
        first = parse_string("(1 )1 )2 $")  # leaves at token 3
        late = parse_string("(1 (2 )2 (1 )1 )2" + " (2 )2" * 10 + " $")
        members = list(sample_strings(
            SamplerConfig(p, seed=6, min_len=9, max_len=26), 349))
        corpus = [first] + members[:149] + [late] + members[149:]
        assert len(late) == 27 and len(corpus) > runtime.BLOCK_ROWS
        message = "corpus string leaves the language at token 3: (1 )1 )2 $"
        with pytest.raises(ValueError) as info:
            check_corpus_suites(net, corpus)
        assert str(info.value) == message
        with pytest.raises(ValueError) as info:
            closing_metric(net, corpus)
        assert str(info.value).endswith("at token 3: (1 )1 )2 $")
        with pytest.raises(ValueError) as info:
            check_corpus_suites(net, corpus[1:])
        assert str(info.value).startswith("corpus string leaves the language "
                                          "at token 6: (1 (2 )2 (1 )1 )2 (2")

    def test_strings_past_their_first_end_mark_are_not_refused(self):
        """Only the tokens a network consumes must stay in the language."""
        net = build_simple_rnn(DyckParams(2, 2))
        corpus = [parse_string("(1 $"), parse_string("(1 )1 $")
                  + parse_string(")2 (1 (1 (1")]
        reports = check_corpus_suites(net, corpus, ("stack", "saturation"))
        assert [r.checked for r in reports] == [3, 3]
        assert all(r.passed for r in reports)

    def test_out_of_range_token_refused(self):
        net = build_lstm(DyckParams(2, 2))
        for suites in (("stack",), ("margins",)):
            with pytest.raises(ValueError, match="out of range"):
                check_corpus_suites(net, [parse_string("(3 )3 $")], suites)

    @pytest.fixture
    def floored_slab(self, monkeypatch):
        """The corpus walk's node table at its floor of 2 * BLOCK_ROWS + 1
        nodes: the strings are walked BLOCK_ROWS at a time, the table is
        emptied whenever a level's new nodes would not fit, and a string's
        positions span many batches of verdicts.  The closure of the
        product graph fits no node there, so the corpus walk answers."""
        monkeypatch.setattr(product, "CORPUS_TABLE_BYTES", 0)

    @pytest.mark.parametrize("arch,enc,sabotage", [
        ("simple", ONEHOT, None), ("simple", BINARY, None), ("lstm", ONEHOT, None),
        ("lstm", BINARY, None), ("naive", None, None),
        ("simple", ONEHOT, flip_push_entry), ("simple", ONEHOT, zero_close_rows),
        ("simple", ONEHOT, softened), ("lstm", BINARY, zero_close_rows),
        ("lstm", BINARY, softened), ("lstm", BINARY, expose_all_slots)])
    def test_floored_slab(self, floored_slab, arch, enc, sabotage):
        p = DyckParams(2, 3)
        net = build(arch, p, enc)
        net = sabotage(net) if sabotage else net
        corpus = sample_strings(SamplerConfig(p, seed=3), 300)
        reports = self.assert_matches_reference(net, corpus)
        assert all(r["passed"] for r in reports) == (sabotage is None)
        assert {r["details"]["walk"] for r in reports} == {"corpus"}

    def test_margins_failure_in_a_later_slab(self, floored_slab, monkeypatch):
        """128 strings stay live together for 25 steps.  The 127 copies of
        the passing string share their nodes, so each level makes two new
        nodes (one after 24 steps) and the 51 nodes are read out once each.
        The floored table yields its verdicts every 257 positions, after
        every third level, and reads out the nodes made since the last
        batch: the root, then 4, then 6 per batch.  Softened weights keep
        the margins for a while: the first failing string in corpus order
        fails at prefix length 19, where a disallowed token takes 0.054,
        and its smallest allowed probability, the smallest of the strings
        up to it, comes at prefix length 17, one batch earlier."""
        p = DyckParams(3, 3)
        net = build_lstm(p)
        net = clone_with(net, **{name: getattr(net, name) * 0.2
                                 for name in vars(net)
                                 if name[0] in "WUb" and name != "b_v"})
        passing = parse_string(" ".join(["(1 (2 (3 )3 )2 )1"] * 4) + " $")
        late = parse_string("(3 )3 (2 (1 )1 )2 (1 (2 )2 )1 (2 )2 (2 (3 )3 )2 "
                            "(2 (3 (3 )3 (3 )3 (2 )2 )3 )2 $")
        corpus = [passing] * 60 + [late] + [passing] * 67
        assert len(corpus) == runtime.BLOCK_ROWS
        readouts = []
        real_readout = verify.readout

        def counting_readout(paramset, h):
            readouts.append(len(h))
            return real_readout(paramset, h)

        monkeypatch.setattr(verify, "readout", counting_readout)
        got = check_probability_margins(net, corpus)
        assert readouts == [1, 4] + [6] * 7 + [4]
        assert got.counterexample.startswith(
            format_string(late) + " @ prefix length 19: min allowed 0.718")
        assert got.checked == 60 * 25 + 20
        assert got.details["min_allowed"] == pytest.approx(0.15458, abs=1e-5)
        self.assert_matches_reference(net, corpus)

    def test_floored_slab_strings_without_end_mark_and_past_it(self, floored_slab):
        p = DyckParams(2, 3)
        corpus = list(sample_strings(SamplerConfig(p, seed=8), 200))
        corpus[5:5] = [(), parse_string("(1 (2"), parse_string("$"),
                       parse_string("(2 )2 $") + parse_string(")1 (1 (1 (1 (1"),
                       parse_string("(1 (1 )1 (2"),
                       parse_string("$") * 2 + parse_string(")2")]
        for net in (build_simple_rnn(p), zero_close_rows(build_lstm(p, BINARY))):
            self.assert_matches_reference(net, corpus)

    @pytest.mark.parametrize("sabotage", [None, zero_close_rows, softened])
    def test_floored_slab_lstm_onehot_past_depth_two(self, floored_slab, sabotage):
        p = DyckParams(8, 3)
        net = build_lstm(p, ONEHOT)
        net = sabotage(net) if sabotage else net
        corpus = sample_strings(SamplerConfig(p, seed=2026), 300)
        reports = self.assert_matches_reference(net, corpus)
        assert all(r["passed"] for r in reports) == (sabotage is None)

    @pytest.mark.parametrize("arch,k", [("simple", 48), ("lstm", 96)])
    def test_slab_floored_by_its_hidden_size(self, monkeypatch, arch, k):
        """With 288 hidden units h alone takes over 2 KB a node, so a node
        table of 512 KB holds fewer nodes than its floor of
        2 * BLOCK_ROWS + 1, which it keeps."""
        p = DyckParams(k, 3)
        net = build(arch, p, ONEHOT)
        monkeypatch.setattr(product, "CORPUS_TABLE_BYTES", 1 << 19)
        assert (1 << 19) // (8 * net.hidden_size) < 2 * runtime.BLOCK_ROWS + 1
        corpus = sample_strings(SamplerConfig(p, seed=5), 150)
        self.assert_matches_reference(net, corpus)
        self.assert_matches_reference(zero_close_rows(net), corpus)

    @pytest.mark.parametrize("k,arch,enc,sabotage", [
        (k, arch, enc, sabotage)
        for k in (2, 8) for arch, enc in ALL_CONSTRUCTIONS
        if k == 2 or arch != "naive"
        for sabotage in [None, zero_close_rows, softened]
        + {"simple": [flip_push_entry], "lstm": [expose_all_slots]}.get(arch, [])])
    def test_floored_table_every_sabotage(self, floored_slab, k, arch, enc,
                                          sabotage):
        p = DyckParams(k, 3)
        net = build(arch, p, enc)
        net = sabotage(net) if sabotage else net
        corpus = sample_strings(SamplerConfig(p, seed=17), 150)
        reports = self.assert_matches_reference(net, corpus)
        assert all(r["passed"] for r in reports) == (sabotage is None)
        assert {r["details"]["walk"] for r in reports} == {"corpus"}

    @pytest.mark.parametrize("k,arch,enc,sabotage", [
        (k, arch, enc, sabotage)
        for k in (2, 8) for arch, enc in ALL_CONSTRUCTIONS
        if k == 2 or arch != "naive"
        for sabotage in [None, zero_close_rows, softened]
        + {"simple": [flip_push_entry], "lstm": [expose_all_slots]}.get(arch, [])])
    def test_both_walks_report_alike(self, monkeypatch, k, arch, enc, sabotage):
        """The closed product graph and the corpus walk give equal reports
        but for the walk that answered and the rows it stepped.  A softened
        net never closes, and the naive net and an LSTM that exposes every
        slot tell apart nodes by the last token too, so their closures are
        given up past twice the automaton's edges, and the corpus walk
        answers."""
        p = DyckParams(k, 3)
        net = build(arch, p, enc)
        net = sabotage(net) if sabotage else net
        corpus = sample_strings(SamplerConfig(p, seed=2026), 300 if k == 2 else 1000)
        closed = [r.as_dict() for r in check_corpus_suites(net, corpus)]
        monkeypatch.setattr(product, "CLOSURE_SHARE", math.inf)
        walked = [r.as_dict() for r in check_corpus_suites(net, corpus)]
        given_up = sabotage in (softened, expose_all_slots) or arch == "naive"
        assert all(r["passed"] for r in closed) == (sabotage is None)
        assert {r["details"]["walk"] for r in closed} == {
            "corpus" if given_up else "closed"}
        assert {r["details"]["walk"] for r in walked} == {"corpus"}
        if given_up:
            extra = (closed[0]["details"]["rows_stepped"]
                     - walked[0]["details"]["rows_stepped"])
            assert 0 < extra <= 2 * product.automaton_edges(p)
        self.assert_same_reports(closed, walked)

    @pytest.mark.parametrize("arch", ["simple", "lstm"])
    def test_emptied_table_reports_as_floored(self, monkeypatch, arch):
        """Long (128, 5) strings make more nodes than the default table
        holds, so it is emptied and some edges are stepped again; the
        reports equal those of an unbounded table and of the floored one,
        but for the last bits of the margins extremes: the LSTM's exposed
        slot holds tanh(1), whose readout sums round with the block."""
        p = DyckParams(128, 5)
        net = build(arch, p, BINARY)
        corpus = sample_strings(
            SamplerConfig(p, seed=2027, min_len=181, max_len=360), 24)
        stepped = TestCorpusWalk.count_stepped_rows(monkeypatch)

        def walked(budget):
            monkeypatch.setattr(product, "CORPUS_TABLE_BYTES", budget)
            stepped.clear()
            reports = [r.as_dict() for r in check_corpus_suites(net, corpus)]
            return reports, sum(stepped)

        default, default_rows = walked(product.CORPUS_TABLE_BYTES)
        unbounded, unbounded_rows = walked(1 << 40)
        assert default_rows > unbounded_rows
        assert all(r["passed"] for r in default)
        for other in (unbounded, walked(0)[0]):
            self.assert_same_reports(other, default)

    def test_bracket_indices_past_a_byte(self):
        """Corpus stacks keep bracket indices in a byte up to k = 255, but
        the allowed close of bracket 200 at k = 200 is symbol row 399."""
        p = DyckParams(200, 2)
        corpus = [parse_string(text) for text in
                  ("(200 )200 $", "(150 (200 )200 )150 (199 )199 $", "(1 )1 $")]
        reports = self.assert_matches_reference(build_simple_rnn(p), corpus)
        assert all(r["passed"] for r in reports)

    @pytest.mark.parametrize("arch,enc,sabotage", [
        ("lstm", BINARY, None), ("simple", ONEHOT, None), ("naive", None, None),
        ("simple", ONEHOT, zero_close_rows), ("lstm", ONEHOT, softened),
        ("lstm", BINARY, random_readout)])
    def test_closing_metric(self, arch, enc, sabotage):
        p = DyckParams(2, 3)
        net = build(arch, p, enc)
        net = sabotage(net) if sabotage else net
        corpus = sample_strings(SamplerConfig(p, seed=12), 300)
        assert closing_metric(net, corpus) == reference.closing_metric(net, corpus)

    def test_closing_metric_at_the_papers_scale(self):
        """The close-only readout scores the (128, 5) binary LSTM as the
        full-softmax reference does."""
        p = DyckParams(128, 5)
        net = build_lstm(p, BINARY)
        corpus = sample_strings(
            SamplerConfig(p, seed=2027, min_len=181, max_len=360), 20)
        got = closing_metric(net, corpus)
        assert got == reference.closing_metric(net, corpus)
        assert got.value == 1.0
        assert got.readout_rows <= p.m * p.k + 1

    def test_closing_metric_where_the_close_probabilities_underflow(self):
        """With the close readout rows erased and a large readout scale, the
        open logit exceeds the close logit by about 1,500 at depth 1, so
        the full softmax rounds the close probability there to 0 and the
        renormalized close probability would be 0/0.  The close-only
        readout takes the softmax over the close logits alone, which is
        defined: at k = 1 the one close has mass 1, so every close is
        confident, as the uniform baseline at k = 1 also counts it."""
        p = DyckParams(1, 2)
        corpus = [parse_string("(1 )1 $"), parse_string("(1 (1 )1 )1 $"),
                  parse_string("(1 )1 (1 )1 $")]
        for arch in ("simple", "lstm"):
            net = zero_close_rows(build(arch, p, ONEHOT,
                                        NumericConfig.for_language(1, zeta=2000.0)))
            state, _ = runtime.run_prefix(net, parse_string("(1 $")[:1])
            assert runtime.next_distribution(net, state)[1] == 0.0
            got = closing_metric(net, corpus)
            assert got.per_separation == {0: (4, 4), 2: (1, 1)}
            assert got == closing_metric_uniform(p, corpus)

    def test_closing_metric_mixed_confidence(self):
        """Softened weights leave some closes confident and some not, so the
        mean depends on the order the buckets first appear in.  Their state
        drifts along a long string: short strings stay confident, while a
        depth-2 pattern repeated twelve times loses confidence after about
        ten closes.  The first string opens the buckets out of order (0, 4,
        then 2)."""
        p = DyckParams(3, 3)
        net = build_lstm(p)
        net = clone_with(net, **{name: getattr(net, name) * 0.2
                                 for name in vars(net)
                                 if name[0] in "WUb" and name != "b_v"})
        texts = ["(1 (2 )2 (3 )3 )1 $", "(3 (3 (3 )3 )3 )3 $", "(2 )2 $",
                 " ".join(["(1 (2 )2 )1"] * 12) + " $",
                 " ".join(["(2 (1 )1 (1 )1 )2"] * 12) + " $"]
        corpus = [parse_string(text) for text in texts * 3]
        got = closing_metric(net, corpus)
        want = reference.closing_metric(net, corpus)
        assert got == want
        assert list(got.per_separation) == list(want.per_separation)
        assert 0.0 < got.value < 1.0

    def test_closing_metric_skips_tokens_past_the_end_mark(self):
        """The walk stops at a string's first end mark, so the closes after
        it are not scored: such strings score exactly as the same strings
        cut there.  The tails hold separations the cut strings lack."""
        p = DyckParams(2, 3)
        net = build_lstm(p, BINARY)
        pairs = [("(1 )1 $", "(2 )2 $"), ("(2 (1 )1 )2 $", "(1 (2 (1 )1 )2 )1 $"),
                 ("(1 )1 $", ""), ("(2 )2 $", "(1 (1 )1 )1")]
        cut = [parse_string(head) for head, _ in pairs]
        tailed = [parse_string(head) + parse_string(tail) for head, tail in pairs]
        want = reference.closing_metric(net, cut)
        assert want.per_separation == {0: (4, 4), 2: (1, 1)}
        assert closing_metric(net, tailed) == want
        assert reference.closing_metric(net, tailed) == want

    def test_closing_metric_edge_cases(self):
        net = build_simple_rnn(DyckParams(2, 2))
        assert np.isnan(closing_metric(net, []).value)
        assert np.isnan(closing_metric(net, [parse_string("(1 $")]).value)
        with pytest.raises(ValueError, match="not well nested"):
            closing_metric(net, [parse_string("(1 )1 $"), parse_string(")1 $")])
        with pytest.raises(ValueError, match="out of range"):
            closing_metric(net, [parse_string("(3 )3 $")])


class TestTreeWalkParity:
    """The sets listed from the block-stepped graph walk are those the
    recursive per-prefix reference returns, and a listing is refused
    exactly when its graph's nodes or its strings exceed the node
    budget."""

    @staticmethod
    def block_rows(monkeypatch):
        """Record the rows of every block the walk steps."""
        rows = []
        real_step_rows = product.step_rows

        def counting_step_rows(paramset, h, c, cols):
            rows.append(len(cols))
            return real_step_rows(paramset, h, c, cols)

        monkeypatch.setattr(product, "step_rows", counting_step_rows)
        return rows

    @pytest.mark.parametrize("k,m,max_len", [(1, 3, 9), (2, 2, 8), (2, 3, 9),
                                             (3, 2, 6)])
    def test_language(self, k, m, max_len):
        p = DyckParams(k, m)
        assert (dfa_membership_set(p, max_len)
                == enumeration_reference.dfa_membership_set(p, max_len))

    @pytest.mark.parametrize("arch,enc,k,m,max_len", [
        (arch, enc, k, m, max_len)
        for k, m, max_len in [(1, 2, 8), (2, 3, 9), (3, 2, 6)]
        for arch, enc in ALL_CONSTRUCTIONS if k > 1 or enc != BINARY])
    def test_intact_constructions(self, monkeypatch, arch, enc, k, m, max_len):
        net = build(arch, DyckParams(k, m), enc)
        rows = self.block_rows(monkeypatch)
        support = net_membership_set(net, max_len)
        assert support == enumeration_reference.net_membership_set(net, max_len)
        assert support == dfa_membership_set(net.dyck_params, max_len)
        assert max(rows) <= product.TREE_BLOCK_ROWS
        if (k, m) == (2, 3):  # merged states: far fewer steps than prefixes
            assert 4 * sum(rows) < enumeration_reference.prefix_count(net, max_len)

    @pytest.mark.parametrize("block", [1, 3, 7])
    def test_other_block_sizes(self, monkeypatch, block):
        monkeypatch.setattr(product, "TREE_BLOCK_ROWS", block)
        rows = self.block_rows(monkeypatch)
        p = DyckParams(2, 3)
        assert (dfa_membership_set(p, 8)
                == enumeration_reference.dfa_membership_set(p, 8))
        for arch, enc in ALL_CONSTRUCTIONS:
            net = build(arch, p, enc)
            assert (net_membership_set(net, 8)
                    == enumeration_reference.net_membership_set(net, 8))
        assert max(rows) == block

    @pytest.mark.parametrize("arch,sabotage", [
        ("simple", flip_push_entry), ("simple", zero_close_rows),
        ("simple", softened), ("lstm", zero_close_rows), ("lstm", softened),
        ("naive", zero_close_rows)])
    def test_sabotaged_constructions(self, arch, sabotage):
        p = DyckParams(2, 3)
        net = sabotage(build(arch, p, None if arch == "naive" else ONEHOT))
        support = net_membership_set(net, 8)
        assert support == enumeration_reference.net_membership_set(net, 8)
        assert support != dfa_membership_set(p, 8)

    @pytest.mark.parametrize("arch,enc", ALL_CONSTRUCTIONS)
    def test_small_beta_and_lambda(self, arch, enc):
        numeric = NumericConfig.for_language(2, beta=0.5, lam=3.0)
        net = build(arch, DyckParams(2, 3), enc, numeric)
        for eps in (0.02, epsilon_for(2), 0.3):
            assert (net_membership_set(net, 8, eps)
                    == enumeration_reference.net_membership_set(net, 8, eps))

    @pytest.mark.parametrize("eps", [0.01, 0.06, 0.1, epsilon_for(2), 0.25,
                                     0.3, 0.45])
    def test_epsilon_values(self, eps):
        for arch, enc in ALL_CONSTRUCTIONS:
            net = build(arch, DyckParams(2, 2), enc)
            assert (net_membership_set(net, 8, eps)
                    == enumeration_reference.net_membership_set(net, 8, eps))

    @pytest.mark.parametrize("arch,enc,eps", [("simple", ONEHOT, None),
                                              ("lstm", BINARY, None),
                                              ("naive", None, 0.3)])
    def test_node_budget_at_the_listing_size(self, arch, enc, eps):
        net = build(arch, DyckParams(2, 3), enc)
        support = enumeration_reference.net_membership_set(net, 8, eps)
        side = product.Support(net, epsilon_for(2) if eps is None else eps)
        states = product.walk_graph((side,), 2, 8,
                                    verify.DEFAULT_ENUMERATION_BUDGET).graph(0).states
        need = max(states, len(support))
        assert net_membership_set(net, 8, eps, node_budget=need) == support
        with pytest.raises(RuntimeError, match=f"budget of {need - 1}$"):
            net_membership_set(net, 8, eps, node_budget=need - 1)

    @pytest.mark.parametrize("max_len", [0, 1, 2])
    def test_shortest_trees(self, max_len):
        net = build_simple_rnn(DyckParams(2, 2))
        assert (net_membership_set(net, max_len)
                == enumeration_reference.net_membership_set(net, max_len)
                == dfa_membership_set(net.dyck_params, max_len))
        with pytest.raises(RuntimeError, match="exceeded the node budget of 0$"):
            net_membership_set(net, max_len, node_budget=0)


def spy_graph_walks(monkeypatch) -> list[tuple]:
    """Record each product graph walk as its sides: the automaton's
    DyckParams, or the id of a network's parameter set."""
    calls = []
    real = verify.walk_graph

    def spy(sides, *args):
        calls.append(tuple(side.params if isinstance(side, product.Language)
                           else id(side.paramset) for side in sides))
        return real(sides, *args)

    monkeypatch.setattr(verify, "walk_graph", spy)
    return calls


class TestEnumeration:
    def test_sets_enumerated_once_per_parameter_object(self, monkeypatch):
        calls = spy_graph_walks(monkeypatch)
        p = DyckParams(2, 2)
        first, twin = build_simple_rnn(p), build_simple_rnn(p)
        enumeration = verify.Enumeration(p, 6)
        assert enumeration.equivalence(first).passed
        report = enumeration.cross([first, twin])
        assert report.passed and report.checked == 2 * total_string_count(2, 6)
        # the twin equals `first` but is another object: walked anew; both
        # agree with the language, so they are not walked against each other
        assert calls == [(p, id(first)), (p, id(twin))]

    def test_reports_match_the_separate_checks(self):
        p = DyckParams(2, 3)
        net = zero_close_rows(build_lstm(p))
        enumeration = verify.Enumeration(p, 7, 0.2)
        assert (enumeration.equivalence(net).as_dict()
                == check_generation_equivalence(net, 7, 0.2).as_dict())
        assert (enumeration.cross(build(a, p, e) for a, e in
                                  verify.applicable_constructions(2)).as_dict()
                == check_cross_construction_agreement(p, 7, 0.2).as_dict())

    def test_cross_after_separate_walks(self, monkeypatch):
        """Two networks that both differ from the language, walked apart,
        are walked against each other for their first difference: the
        report is the one they give walked together."""
        calls = spy_graph_walks(monkeypatch)
        p = DyckParams(2, 3)
        first = zero_close_rows(build_lstm(p))
        other = flip_push_entry(build_simple_rnn(p))
        apart = verify.Enumeration(p, 7)
        assert not apart.equivalence(first).passed
        report = apart.cross([first, other])
        together = verify.Enumeration(p, 7).cross([first, other])
        assert calls == [(p, id(first)), (p, id(other)), (id(first), id(other)),
                         (p, id(first), id(other))]
        assert report.as_dict() == together.as_dict()
        assert report.counterexample.startswith("lstm/onehot vs simple/onehot: ")

    @pytest.mark.parametrize("max_len", [0, -1])
    def test_max_len_below_one_refused(self, max_len):
        net = build_simple_rnn(DyckParams(2, 2))
        with pytest.raises(ValueError, match=f"at least 1.*got {max_len}"):
            verify.Enumeration(DyckParams(2, 2), max_len)
        with pytest.raises(ValueError, match="at least 1"):
            check_generation_equivalence(net, max_len=max_len)
        with pytest.raises(ValueError, match="at least 1"):
            check_cross_construction_agreement(DyckParams(2, 2), max_len=max_len)

    def test_foreign_parameter_set_refused(self):
        enumeration = verify.Enumeration(DyckParams(2, 3), 6)
        with pytest.raises(ValueError, match="k=2, m=2"):
            enumeration.equivalence(build_simple_rnn(DyckParams(2, 2)))


class TestProductGraphParity:
    """The equivalence and cross reports counted on the product graph are
    those the reference builds from listed sets, for every intact and
    sabotaged construction, at several epsilon values and block sizes; the
    walk refuses a node budget exactly below the nodes it holds."""

    P, MAX_LEN = DyckParams(2, 3), 6
    _reference: dict = {}

    @classmethod
    def nets(cls) -> dict:
        """Every construction at (2, 3), intact and under each sabotage."""
        nets = {}
        for arch, enc in ALL_CONSTRUCTIONS:
            net = build(arch, cls.P, enc)
            name = arch if enc is None else f"{arch}/{enc}"
            nets[name] = net
            nets[f"{name} zero_close_rows"] = zero_close_rows(net)
            nets[f"{name} softened"] = softened(net)
            if arch == "simple":
                nets[f"{name} flip_push_entry"] = flip_push_entry(net)
        return nets

    @classmethod
    def reference(cls, eps):
        """Per net, the reference report and the states count at the
        default block size; found once per epsilon."""
        if eps not in cls._reference:
            cls._reference[eps] = {
                name: (enumeration_reference.equivalence_report(
                           net, cls.MAX_LEN, eps).as_dict(),
                       verify.Enumeration(cls.P, cls.MAX_LEN, eps).equivalence(
                           net).details["states"])
                for name, net in cls.nets().items()}
        return cls._reference[eps]

    @staticmethod
    def without_states(report):
        out = report.as_dict()
        out["details"] = dict(out["details"])
        assert out["details"].pop("states") > 0
        return out

    @pytest.mark.parametrize("block", [1, 3, 7])
    @pytest.mark.parametrize("eps", [None, 0.06, 0.3])
    def test_equivalence(self, monkeypatch, eps, block):
        expected = self.reference(eps)
        monkeypatch.setattr(product, "TREE_BLOCK_ROWS", block)
        for name, net in self.nets().items():
            enumeration = verify.Enumeration(self.P, self.MAX_LEN, eps)
            report = enumeration.equivalence(net)
            want, states = expected[name]
            assert self.without_states(report) == want, name
            # saturated states are exact whatever rows share a block step;
            # a softened net's last bits, and so its merges, may not be
            if not name.endswith("softened"):
                assert report.details["states"] == states, name
            graph = enumeration._graph(net)
            assert graph.agree == (graph.sizes[0] == graph.sizes[1]
                                   == graph.common), name
            held = report.details["states"]
            enumeration._graph(net, held)
            with pytest.raises(RuntimeError,
                               match=f"node budget of {held - 1}$"):
                enumeration._graph(net, held - 1)

    @pytest.mark.parametrize("block", [1, 3, 7])
    @pytest.mark.parametrize("eps", [None, 0.06, 0.3])
    def test_cross(self, monkeypatch, eps, block):
        monkeypatch.setattr(product, "TREE_BLOCK_ROWS", block)
        nets = self.nets()
        twin = zero_close_rows(build("simple", self.P, ONEHOT))
        for names in (["simple/onehot", "lstm/binary", "lstm/onehot zero_close_rows",
                       "simple/binary flip_push_entry"],
                      ["simple/onehot zero_close_rows", "twin",
                       "lstm/onehot softened", "naive"],
                      ["naive softened", "simple/onehot softened",
                       "lstm/binary zero_close_rows"]):
            paramsets = [twin if name == "twin" else nets[name] for name in names]
            report = verify.Enumeration(self.P, self.MAX_LEN, eps).cross(paramsets)
            assert self.without_states(report) == enumeration_reference.cross_report(
                self.P, paramsets, self.MAX_LEN, eps).as_dict(), names


class TestJointWalkParity:
    """One walk of the language beside many networks gives, for each, the
    Graph of the depth-by-depth pair walk of the language and that network
    (enumeration_reference.walk_graph), past the depth where the joint
    graph closes; and for two networks, the Graph of their pair walk."""

    @staticmethod
    def nets(p, sabotage=True):
        """Every construction at p (the naive one where the default budget
        allows it), with a zero_close_rows net beside each and a
        flip_push_entry net beside each simple RNN."""
        nets = []
        for arch, enc in ALL_CONSTRUCTIONS:
            if enc == BINARY and p.k == 1 or arch == "naive" and p.k > 3:
                continue
            net = build(arch, p, enc)
            nets.append(net)
            if sabotage:
                nets.append(zero_close_rows(net))
                if arch == "simple":
                    nets.append(flip_push_entry(net))
        return nets

    @staticmethod
    def check(p, nets, max_len, eps=None, soft=()):
        """Every network's pair with the language, and a few pairs of
        networks, against the reference pair walks; for a pair with a side
        in `soft` (side s is nets[s - 1]), every field but states."""
        eps = epsilon_for(p.k) if eps is None else eps
        sides = (product.Language(p), *(product.Support(net, eps) for net in nets))
        walk = product.walk_graph(sides, p.k, max_len,
                                  verify.DEFAULT_ENUMERATION_BUDGET)
        pairs = [(0, s) for s in range(1, len(sides))]
        pairs += [(1, 2), (2, len(nets)), (len(nets) - 1, 1)]
        for a, b in pairs:
            got = walk.graph(a, b)
            want = enumeration_reference.walk_graph(
                (sides[a], sides[b]), p.k, max_len,
                verify.DEFAULT_ENUMERATION_BUDGET)[0]
            if {a, b} & set(soft):
                got, want = (dict(vars(graph), states=None) for graph in (got, want))
            assert got == want, (a, b)
        assert walk.graph(0) == enumeration_reference.walk_graph(
            sides[:1], p.k, max_len, verify.DEFAULT_ENUMERATION_BUDGET)[0]
        return walk

    @pytest.mark.parametrize("k,m,max_len", [(2, 2, 40), (2, 3, 12), (3, 3, 10)])
    def test_intact_and_sabotaged(self, k, m, max_len):
        walk = self.check(DyckParams(k, m), self.nets(DyckParams(k, m)), max_len)
        if (k, m) == (2, 2):  # no node made past depth 11
            assert len(walk.made) == 13

    def test_k8_m3_to_length_12(self):
        """The intact walk makes no node past depth 4: 657 nodes stand for
        the 2,934 language nodes the pair walks count up to length 12."""
        p = DyckParams(8, 3)
        walk = self.check(p, self.nets(p, sabotage=False), 12)
        assert (len(walk.made), len(walk.sides), walk.graph(0).states) == (6, 657, 2_934)

    def test_k8_m3_sabotaged(self):
        self.check(DyckParams(8, 3), self.nets(DyckParams(8, 3)), 6)

    @pytest.mark.parametrize("eps", [None, 0.3])
    def test_softened_nets_beside_exact_ones(self, eps):
        """A softened net's last bits depend on the rows stepped beside it,
        so only its states may differ; the exact nets' may not."""
        p = DyckParams(2, 3)
        exact = self.nets(p)
        nets = exact + [softened(net) for net in exact[::3]]
        self.check(p, nets, 7, eps, soft=range(len(exact) + 1, len(nets) + 1))

    def test_block_sizes(self, monkeypatch):
        p = DyckParams(2, 3)
        for block in (1, 3, 7):
            monkeypatch.setattr(product, "TREE_BLOCK_ROWS", block)
            self.check(p, self.nets(p), 9)

    def test_listing_past_closure(self):
        """product.members lists every string from the closed walk."""
        p = DyckParams(2, 2)
        assert (dfa_membership_set(p, 14)
                == enumeration_reference.dfa_membership_set(p, 14))
        nets = self.nets(p, sabotage=False)
        for net in nets + [flip_push_entry(nets[0])]:
            assert (net_membership_set(net, 12)
                    == enumeration_reference.net_membership_set(net, 12))


class TestThresholdsRefused:
    @pytest.mark.parametrize("eps", [float("nan"), 0.0, 1.0, -0.1, 1.5,
                                     float("inf")])
    def test_epsilon_outside_open_unit_interval(self, eps):
        p = DyckParams(2, 2)
        net = build_simple_rnn(p)
        corpus = [parse_string("(1 )1 $")]
        for check in (lambda: net_membership_set(net, 4, eps),
                      lambda: verify.Enumeration(p, 4, eps),
                      lambda: check_generation_equivalence(net, 4, eps),
                      lambda: check_cross_construction_agreement(p, 4, eps),
                      lambda: check_corpus_suites(net, corpus, epsilon=eps),
                      lambda: check_probability_margins(net, corpus, eps)):
            with pytest.raises(ValueError, match=r"epsilon must lie in \(0, 1\)"):
                check()

    @pytest.mark.parametrize("threshold", [float("nan"), -0.1, 1.0, 2.0])
    def test_threshold_outside_half_open_unit_interval(self, threshold):
        p = DyckParams(2, 2)
        corpus = [parse_string("(1 )1 $")]
        with pytest.raises(ValueError, match=r"threshold must lie in \[0, 1\)"):
            closing_metric(build_simple_rnn(p), corpus, threshold)
        with pytest.raises(ValueError, match=r"threshold must lie in \[0, 1\)"):
            closing_metric_uniform(p, corpus, threshold)

    def test_threshold_zero_is_kept(self):
        p = DyckParams(2, 2)
        corpus = [parse_string("(1 (2 )2 )1 $")]
        assert closing_metric(build_simple_rnn(p), corpus, 0.0).value == 1.0
        assert closing_metric_uniform(p, corpus, 0.0).value == 1.0


@pytest.mark.parametrize("p", [DyckParams(2, 3), DyckParams(3, 2)])
def test_allowed_row_mask_matches_allowed_tokens(p):
    for state in enumerate_states(p):
        if state == ACCEPT:
            with pytest.raises(ValueError):
                allowed_row_mask(p, state)
            continue
        expected = np.zeros(2 * p.k + 1, dtype=bool)
        for token in allowed_tokens(p, state):
            expected[symbol_row(token, p.k)] = True
        assert np.array_equal(allowed_row_mask(p, state), expected), state


class TestClosingMetric:
    def test_constructed_network_scores_one(self):
        p = DyckParams(8, 3)
        net = build_lstm(p, BINARY)
        corpus = sample_strings(SamplerConfig(p, seed=2), 300)
        report = closing_metric(net, corpus)
        assert report.value == 1.0
        assert all(c == t for c, t in report.per_separation.values())

    def test_uniform_baseline_k_ge_2(self):
        p = DyckParams(2, 3)
        corpus = sample_strings(SamplerConfig(p, seed=2), 100)
        assert closing_metric_uniform(p, corpus).value == 0.0

    def test_uniform_baseline_k_1(self):
        p = DyckParams(1, 2)
        corpus = sample_strings(SamplerConfig(p, seed=2), 100)
        assert closing_metric_uniform(p, corpus).value == 1.0

    def test_separations_are_even_and_bucketed(self):
        p = DyckParams(2, 3)
        net = build_simple_rnn(p)
        corpus = [parse_string("(1 (2 )2 )1 $")]
        report = closing_metric(net, corpus)
        assert set(report.per_separation) == {0, 2}
        assert report.missing_separations == []

    def test_missing_bucket_diagnostic(self):
        p = DyckParams(1, 3)
        net = build_simple_rnn(p)
        # separations 0 and 4 occur, 2 does not
        corpus = [parse_string("(1 )1 $"),
                  parse_string("(1 (1 )1 (1 )1 )1 $")]
        report = closing_metric(net, corpus)
        assert report.missing_separations == [2]


def invisible_unit(net):
    """Erase the recurrent and readout weights that read hidden unit 0 of a
    sigmoid RNN, so what unit 0 holds moves neither its steps nor its
    readout."""
    W, V = net.W.copy(), net.V.copy()
    W[:, 0] = 0.0
    V[:, 0] = 0.0
    return clone_with(net, W=W, V=V)


class TestDistinctRowReadout:
    """closing_metric reads out each distinct hidden row once, finding
    repeats by the rows' bytes, and empties a full table, so every report
    matches the reference."""

    P = DyckParams(2, 3)

    @pytest.fixture
    def corpus(self):
        return sample_strings(SamplerConfig(self.P, seed=12), 300)

    @staticmethod
    def write_unit_zero(monkeypatch, value):
        """Make every step write value(input columns) into hidden unit 0,
        in the corpus walk and in the reference's single steps alike."""
        real = runtime.step_rows

        def step_rows(paramset, h, c, cols):
            h, c, acts = real(paramset, h, c, cols)
            h = h.copy()
            h[..., 0] = value(np.asarray(cols))
            return h, c, acts

        monkeypatch.setattr(runtime, "step_rows", step_rows)

    def plain_rows(self, net, corpus, monkeypatch):
        """The readout rows with +0.0 in unit 0: the distinct-row count."""
        with monkeypatch.context() as patch:
            self.write_unit_zero(patch, lambda cols: 0.0)
            return closing_metric(net, corpus).readout_rows

    def test_rows_sharing_a_large_unit_are_read_out_once(self, corpus,
                                                         monkeypatch):
        """1e20 in unit 0 swamps every other unit in any weighted sum of a
        row, but rows are told apart by their bytes: each distinct row is
        still read out exactly once."""
        net = invisible_unit(build_simple_rnn(self.P))
        distinct = self.plain_rows(net, corpus, monkeypatch)
        self.write_unit_zero(monkeypatch, lambda cols: 1e20)
        got = closing_metric(net, corpus)
        assert got == reference.closing_metric(net, corpus)
        assert 1 < distinct == got.readout_rows < got.closes

    def test_rows_differing_in_a_zeros_sign_stay_apart(self, corpus,
                                                       monkeypatch):
        """-0.0 after an odd input column, +0.0 after an even one: rows
        that reach one stack through different last tokens compare equal
        but differ in their bytes."""
        net = invisible_unit(build_simple_rnn(self.P))
        distinct = self.plain_rows(net, corpus, monkeypatch)
        self.write_unit_zero(monkeypatch,
                             lambda cols: np.where(cols % 2, -0.0, 0.0))
        got = closing_metric(net, corpus)
        assert got == reference.closing_metric(net, corpus)
        assert distinct < got.readout_rows

    @pytest.mark.parametrize("cap", [0, 10])
    @pytest.mark.parametrize("net", ["softened", "random gates"])
    def test_rows_that_never_repeat_outgrow_the_table(self, corpus, monkeypatch,
                                                      net, cap):
        """A table at its cap of rows is emptied, and rows seen before are
        read out again."""
        net = (softened(build_lstm(self.P)) if net == "softened"
               else _dense_lstm(self.P.k, self.P.m, seed=3))
        assert len(corpus) > runtime.BLOCK_ROWS
        full = closing_metric(net, corpus)
        row_bytes = 8 * net.hidden_size + self.P.k
        monkeypatch.setattr(verify, "_READOUT_TABLE_BYTES", cap * row_bytes)
        got = closing_metric(net, corpus)
        assert got == full == reference.closing_metric(net, corpus)
        assert cap < full.readout_rows < got.readout_rows <= got.closes

    def test_a_full_table_is_emptied_within_a_walk_block(self, corpus,
                                                        monkeypatch):
        """One walk block brings more distinct rows than the smallest table
        holds, so the table is emptied between two of its steps: the
        verdicts of the closes already looked up are written first."""
        net = _dense_lstm(self.P.k, self.P.m, seed=3)
        block = corpus[:runtime.BLOCK_ROWS]
        full = closing_metric(net, block)
        monkeypatch.setattr(verify, "_READOUT_TABLE_BYTES", 0)
        got = closing_metric(net, block)
        assert got == full == reference.closing_metric(net, block)
        assert runtime.BLOCK_ROWS < full.readout_rows <= got.readout_rows
        assert 0.0 < got.value < 1.0

    @pytest.mark.parametrize("bad_first", [True, False])
    def test_refusals_name_the_first_faulty_string(self, bad_first):
        """A string that opens with a close is walked in the last block and
        a long mismatched one in the first; either way the first in corpus
        order is named, before anything is walked."""
        p = self.P
        net = build_lstm(p, BINARY)
        members = list(sample_strings(
            SamplerConfig(p, seed=6, min_len=9, max_len=26), 300))
        opening = parse_string(")1 (1 )1 $")
        long_bad = parse_string("(1 (2 )2 (1 )1" + " (2 )2" * 10 + " )2 $")
        bad = [opening, long_bad] if bad_first else [long_bad, opening]
        corpus = members[:150] + bad[:1] + members[150:] + bad[1:]
        named = format_string(bad[0])
        at = "1" if bad[0] is opening else "26"
        with pytest.raises(ValueError) as info:
            closing_metric(net, corpus)
        assert str(info.value) == (f"corpus string is not well nested at "
                                   f"token {at}: {named}")


def zero_u_c_column(lstm):
    """Sabotage: open bracket 1 writes nothing into the cell."""
    U_c = lstm.U_c.copy()
    U_c[:, 0] = 0.0
    return clone_with(lstm, U_c=U_c)


def zero_w_i(lstm):
    """Sabotage: the input gate no longer sees the depth."""
    return clone_with(lstm, W_i=np.zeros_like(lstm.W_i))


class TestDistinctness:
    @pytest.mark.parametrize("arch,enc,k,m", [
        ("simple", ONEHOT, 2, 3), ("simple", BINARY, 2, 3),
        ("lstm", ONEHOT, 2, 3), ("lstm", BINARY, 2, 3), ("simple", ONEHOT, 2, 2)],
        ids=["simple-onehot", "simple-binary", "lstm-onehot", "lstm-binary",
             "simple-onehot-k2m2"])
    def test_full_depth_states_distinct(self, arch, enc, k, m):
        net = build(arch, DyckParams(k, m), enc)
        report = check_full_depth_distinctness(net)
        assert report.passed
        assert report.checked == k**m

    @pytest.mark.parametrize("beta,lam", [(20.0, None), (0.5, 3.0)])
    @pytest.mark.parametrize("k,m", [(1, 3), (2, 3), (3, 2), (8, 3)])
    def test_matches_the_scalar_search(self, k, m, beta, lam):
        """Every construction the default parameter budget admits, intact
        and sabotaged, reports what the recursive search over step reports."""
        p = DyckParams(k, m)
        numeric = NumericConfig.for_language(k, beta=beta, lam=lam)
        for arch, enc in verify.applicable_constructions(k):
            if arch == "naive" and k == 8:
                continue  # refused by the default parameter budget
            net = build(arch, p, enc, numeric)
            sabotages = {"simple": [flip_push_entry],
                         "lstm": [zero_u_c_column, zero_w_i], "naive": []}[arch]
            nets = [net] + [sabotage(net) for sabotage in sabotages]
            for i, variant in enumerate(nets):
                report = check_full_depth_distinctness(variant).as_dict()
                assert report == enumeration_reference.check_full_depth_distinctness(
                    variant).as_dict()
                # the zeroed LSTM weights merge full-depth states
                assert report["passed"] == (arch != "lstm" or i == 0 or k == 1)

    def test_tokens_only_for_the_collision(self, monkeypatch):
        """The k^m strings are walked as codes; only a colliding pair and
        its suffix become Tokens."""
        made = []
        real = Token.__post_init__

        def counting(self):
            made.append(self)
            real(self)

        params = DyckParams(4, 3)
        vocabulary(4)
        monkeypatch.setattr(Token, "__post_init__", counting)
        net = build("lstm", params, BINARY)
        assert check_full_depth_distinctness(net).passed
        assert made == []
        report = check_full_depth_distinctness(
            clone_with(net, W_i=np.zeros_like(net.W_i)))
        assert not report.passed
        # the pair reuses the vocabulary; only the suffix is new
        assert 0 < len(made) <= params.m + 1

    def test_budget_refused_before_any_string_is_built(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("stepped past the budget check")

        for module in (runtime, verify):
            monkeypatch.setattr(module, "walk", refuse)
        monkeypatch.setattr(verify.itertools, "product", refuse)
        net = build_lstm(DyckParams(128, 5), BINARY)
        with pytest.raises(RuntimeError, match="exceeds the enumeration budget"):
            check_full_depth_distinctness(net)

    def test_truncated_state_collides(self):
        """Keeping fewer than m*ceil(log2 k) informative coordinates forces a
        pigeonhole collision among the k^m full-depth states."""
        p = DyckParams(2, 3)
        net = build_lstm(p, BINARY)
        w = net.encoding.width
        keep = [j * w for j in range(p.m)][:-1]  # first data bit of slots 1..m-1

        def key_fn(state):
            return state.c[keep].tobytes()

        def step_fn(state, token):
            new, _ = step(net, state, token)
            return new

        encoder = QuantizedEncoder(d=len(keep), p=1,
                                   initial=initial_state(net),
                                   step_fn=step_fn, key_fn=key_fn)
        collision = find_collision(encoder, p)
        assert collision is not None


class TestFindCollision:
    def test_pigeonhole_two_states_four_prefixes(self):
        p = DyckParams(2, 2)
        encoder = QuantizedEncoder.from_table(1, 1, 2, seed=0)
        collision = find_collision(encoder, p)
        assert isinstance(collision, Collision)
        assert is_member(p, collision.first + collision.suffix)
        assert not is_member(p, collision.second + collision.suffix)

    @pytest.mark.parametrize("seed", range(5))
    def test_collisions_verify_for_any_table(self, seed):
        p = DyckParams(2, 2)
        encoder = QuantizedEncoder.from_table(1, 1, 2, seed=seed)
        collision = find_collision(encoder, p)
        assert collision is not None  # 2 states < 4 prefixes forces one

    def test_boundary_capacity(self):
        # 2 states, 2 prefixes: a collision may or may not exist; when
        # returned it must verify (find_collision verifies internally).
        p = DyckParams(2, 1)
        for seed in range(4):
            encoder = QuantizedEncoder.from_table(1, 1, 2, seed=seed)
            collision = find_collision(encoder, p)
            if collision is not None:
                assert is_member(p, collision.first + collision.suffix)

    def test_equal_seeds_give_equal_tables(self):
        def table(seed):
            encoder = QuantizedEncoder.from_table(2, 2, 3, seed=seed)
            return [[encoder.step_fn(state, token)
                     for token in vocabulary(3)[:-1]] for state in range(16)]

        assert table(5) == table(5)
        assert table(5) != table(6)
        assert {entry for row in table(5) for entry in row} <= set(range(16))

    @pytest.mark.parametrize("seed", range(5))
    def test_pigeonhole_collision_with_more_states(self, seed):
        # 4 states < 9 full-depth strings
        p = DyckParams(3, 2)
        collision = find_collision(QuantizedEncoder.from_table(1, 2, 3, seed=seed), p)
        assert collision is not None
        assert is_member(p, collision.first + collision.suffix)

    @pytest.mark.parametrize("d,p", [(-1, 1), (1, -1), (-2, -3)])
    def test_negative_width_or_bits_refused(self, d, p):
        with pytest.raises(ValueError, match=f"d={d}, p={p}"):
            QuantizedEncoder.from_table(d, p, 2)

    def test_zero_width_is_one_state(self):
        encoder = QuantizedEncoder.from_table(0, 3, 2)
        assert encoder.state_budget == 1
        collision = find_collision(encoder, DyckParams(2, 2))
        assert collision.describe() == "(1 (1  ~  (1 (2  suffix: )1 )1 $"

    def test_table_size_cap(self):
        with pytest.raises(ValueError, match="too large"):
            QuantizedEncoder.from_table(3, 7, 2)
        assert QuantizedEncoder.from_table(4, 5, 2).state_budget == 2**20

    def test_budget_guard(self):
        p = DyckParams(128, 5)
        encoder = QuantizedEncoder.from_table(1, 1, 128)
        with pytest.raises(RuntimeError, match="budget"):
            find_collision(encoder, p, budget=10**4)


class TestCrossConstruction:
    def test_k2_m2(self):
        report = check_cross_construction_agreement(DyckParams(2, 2), max_len=8)
        assert report.passed
        assert len(report.details["constructions"]) == 5
        assert all(report.details["agree_with_language"])

    def test_k3_m1(self):
        assert check_cross_construction_agreement(DyckParams(3, 1),
                                                  max_len=6).passed

    def test_k1_excludes_binary(self):
        report = check_cross_construction_agreement(DyckParams(1, 2), max_len=8)
        assert report.passed
        assert report.details["constructions"] == ["simple/onehot", "lstm/onehot",
                                                   "naive"]

    def test_naive_built_under_the_given_budget(self):
        # the naive network at (4, 3) has 696 units, 484,416 recurrent
        # weights: over the default budget it is left out, and named
        p = DyckParams(4, 3)
        report = check_cross_construction_agreement(p, max_len=4)
        assert report.passed and "naive" not in report.details["constructions"]
        (reason,) = report.details["left_out"].values()
        assert list(report.details["left_out"]) == ["naive"]
        assert "484416 dense recurrent weights" in reason and "budget" in reason
        report = check_cross_construction_agreement(p, max_len=4,
                                                    parameter_budget=500_000)
        assert report.passed and report.details["constructions"][-1] == "naive"
        assert "left_out" not in report.details


def test_reports_serialize_to_json():
    net = build_simple_rnn(DyckParams(1, 1))
    report = check_generation_equivalence(net, max_len=4)
    payload = json.dumps(report.as_dict())
    assert json.loads(payload)["suite"] == "generation_equivalence"
    assert "PASS" in report.summary_line()
