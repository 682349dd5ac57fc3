import json

import numpy as np
import pytest

from dyckrnn import runtime, verify
from dyckrnn.automaton import (ACCEPT, DyckParams, allowed_tokens, is_member,
                               parse_string, symbol_row)
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
import corpus_reference as reference


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
        net = build_simple_rnn(DyckParams(2, 2))
        with pytest.raises(RuntimeError, match="budget"):
            check_generation_equivalence(net, max_len=30)


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

    @pytest.mark.parametrize("arch,enc", [("simple", ONEHOT), ("lstm", BINARY)])
    def test_one_step_per_token(self, monkeypatch, arch, enc):
        p = DyckParams(4, 3)
        net = build(arch, p, enc)
        corpus = sample_strings(SamplerConfig(p, seed=7), 50)
        stepped = []
        real_step_rows = runtime.step_rows

        def counting_step_rows(paramset, h, c, cols):
            stepped.append(len(cols))
            return real_step_rows(paramset, h, c, cols)

        monkeypatch.setattr(runtime, "step_rows", counting_step_rows)
        reports = check_corpus_suites(net, corpus)
        assert all(r.passed for r in reports)
        assert sum(stepped) == sum(len(s) - 1 for s in corpus)


def softened(net):
    """Sabotage: scale every recurrent, input and bias array into the
    unsaturated range."""
    return TestCorpusWalk.softened(net)


def expose_all_slots(lstm):
    """Sabotage: drop the output gate's recurrent block, so the hidden
    state shows every occupied slot while the cell keeps the stack."""
    return clone_with(lstm, W_o=np.zeros_like(lstm.W_o))


def relabeled(strings, index):
    """Single-type strings with every bracket turned into bracket `index`."""
    return [tuple(t if t.kind == "end" else type(t)(t.kind, index) for t in s)
            for s in strings]


class TestBlockWalkParity:
    """The block walk reports what the per-prefix reference loop reports;
    the margins extremes may differ by the order of the readout sums."""

    @staticmethod
    def assert_matches_reference(net, corpus, suites=tuple(verify.CORPUS_SUITES)):
        batched = [r.as_dict() for r in check_corpus_suites(net, corpus, suites)]
        expected = [r.as_dict() for r in
                    reference.check_corpus_suites(net, corpus, suites)]
        for got, want in zip(batched, expected):
            if got["suite"] == "probability_margins":
                for key in ("min_allowed", "max_disallowed"):
                    assert got["details"].pop(key) == pytest.approx(
                        want["details"].pop(key), abs=1e-12, rel=0)
        assert batched == expected
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

    def test_out_of_range_token_refused(self):
        net = build_lstm(DyckParams(2, 2))
        for suites in (("stack",), ("margins",)):
            with pytest.raises(ValueError, match="out of range"):
                check_corpus_suites(net, [parse_string("(3 )3 $")], suites)

    @pytest.mark.parametrize("arch,enc,sabotage", [
        ("lstm", BINARY, None), ("simple", ONEHOT, None), ("naive", None, None),
        ("simple", ONEHOT, zero_close_rows), ("lstm", ONEHOT, softened)])
    def test_closing_metric(self, arch, enc, sabotage):
        p = DyckParams(2, 3)
        net = build(arch, p, enc)
        net = sabotage(net) if sabotage else net
        corpus = sample_strings(SamplerConfig(p, seed=12), 300)
        assert closing_metric(net, corpus) == reference.closing_metric(net, corpus)

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

    def test_closing_metric_edge_cases(self):
        net = build_simple_rnn(DyckParams(2, 2))
        assert np.isnan(closing_metric(net, []).value)
        assert np.isnan(closing_metric(net, [parse_string("(1 $")]).value)
        with pytest.raises(ValueError, match="not well nested"):
            closing_metric(net, [parse_string("(1 )1 $"), parse_string(")1 $")])
        with pytest.raises(ValueError, match="out of range"):
            closing_metric(net, [parse_string("(3 )3 $")])


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


class TestDistinctness:
    @pytest.mark.parametrize("arch,enc", [("simple", ONEHOT), ("simple", BINARY),
                                          ("lstm", ONEHOT), ("lstm", BINARY)])
    def test_full_depth_states_distinct(self, arch, enc):
        net = build(arch, DyckParams(2, 3), enc)
        report = check_full_depth_distinctness(net)
        assert report.passed
        assert report.checked == 8

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

    def test_network_encoder_has_no_collision(self):
        p = DyckParams(2, 2)
        net = build_simple_rnn(p)
        assert find_collision(QuantizedEncoder.from_network(net), p) is None

    def test_boundary_capacity(self):
        # 2 states, 2 prefixes: a collision may or may not exist; when
        # returned it must verify (find_collision verifies internally).
        p = DyckParams(2, 1)
        for seed in range(4):
            encoder = QuantizedEncoder.from_table(1, 1, 2, seed=seed)
            collision = find_collision(encoder, p)
            if collision is not None:
                assert is_member(p, collision.first + collision.suffix)

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
        # the naive network at (4, 3) has 696 units, 484,416 recurrent weights
        p = DyckParams(4, 3)
        with pytest.raises(ValueError, match="budget"):
            check_cross_construction_agreement(p, max_len=4)
        report = check_cross_construction_agreement(p, max_len=4,
                                                    parameter_budget=500_000)
        assert report.passed and report.details["constructions"][-1] == "naive"


def test_reports_serialize_to_json():
    net = build_simple_rnn(DyckParams(1, 1))
    report = check_generation_equivalence(net, max_len=4)
    payload = json.dumps(report.as_dict())
    assert json.loads(payload)["suite"] == "generation_equivalence"
    assert "PASS" in report.summary_line()
