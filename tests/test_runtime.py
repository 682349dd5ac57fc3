import numpy as np
import pytest

from dyckrnn.automaton import (EMPTY, DyckParams, Token, close_bracket,
                               input_column, open_bracket, parse_string, run,
                               stack_state)
from dyckrnn.builders import build, build_lstm, build_naive_dfa_rnn, build_simple_rnn
from dyckrnn.encodings import BINARY, ONEHOT
from dyckrnn.numerics import NumericConfig, epsilon_for
from dyckrnn import cli, runtime
from dyckrnn.runtime import (NetworkState, StackDecodeError, _openblas_threads,
                             decode_stack, format_trace, initial_state,
                             next_distribution, run_prefix, serial_blas,
                             slot_view, step)
from dyckrnn.sampler import SamplerConfig, sample_strings
from conftest import clone_with, flip_push_entry, zero_close_rows
import corpus_reference


class TestSimpleRnnSteps:
    def test_first_push_fills_push_half(self):
        net = build_simple_rnn(DyckParams(2, 2), ONEHOT)
        state, _ = step(net, initial_state(net), open_bracket(1))
        # push half: codeword in slot 1, nothing below; pop half: erased
        assert state.h.tolist() == [1, 0, 0, 0, 0, 0, 0, 0]

    def test_push_then_pop_materializes_pop_half(self):
        net = build_simple_rnn(DyckParams(2, 2), ONEHOT)
        state, _ = run_prefix(net, parse_string("(1 (2"))
        assert state.h.tolist() == [0, 1, 1, 0, 0, 0, 0, 0]  # top-first
        state, _ = step(net, state, close_bracket(2))
        # stack [<1] now lives in the pop half
        assert state.h.tolist() == [0, 0, 0, 0, 1, 0, 0, 0]

    def test_hidden_values_exactly_binary(self):
        net = build_simple_rnn(DyckParams(2, 3), BINARY)
        state, _ = run_prefix(net, parse_string("(1 (2 )2 (2 (1"))
        assert set(np.unique(state.h)) <= {0.0, 1.0}


class TestLstmSteps:
    def test_first_push_writes_slot_one(self):
        net = build_lstm(DyckParams(2, 3), ONEHOT)
        state, _ = step(net, initial_state(net), open_bracket(1))
        assert state.c.tolist() == [1, 0, 0, 0, 0, 0]
        expected_h = np.zeros(6)
        expected_h[0] = np.tanh(1.0)
        assert np.array_equal(state.h, expected_h)

    def test_pop_gates(self):
        """On a pop, the forget gate is 0 exactly on the top slot and 1
        elsewhere (slots beyond the top hold zeros, so leaving them open is
        harmless); input and output follow the gate equations."""
        net = build_lstm(DyckParams(2, 3), ONEHOT)
        state, _ = run_prefix(net, parse_string("(1 (2"))
        state, trace = step(net, state, close_bracket(2), want_trace=True)
        assert trace.f.tolist() == [1, 1, 0, 0, 1, 1]
        assert trace.i.tolist() == [0, 0, 0, 0, 0, 0]
        assert state.c.tolist() == [1, 0, 0, 0, 0, 0]

    def test_push_gates(self):
        net = build_lstm(DyckParams(2, 3), ONEHOT)
        state, _ = run_prefix(net, parse_string("(1"))
        state, trace = step(net, state, open_bracket(2), want_trace=True)
        assert trace.f.tolist() == [1, 1, 1, 1, 1, 1]
        assert trace.i.tolist() == [0, 0, 1, 1, 0, 0]       # first free slot
        assert trace.o.tolist() == [0, 0, 1, 1, 1, 1]       # expose new top only
        assert trace.c_tilde.tolist() == [0, 1, 0, 1, 0, 1]  # offer to all slots

    def test_only_top_slot_in_hidden(self):
        net = build_lstm(DyckParams(2, 3), BINARY)
        state, _ = run_prefix(net, parse_string("(1 (2 (1"))
        w = net.encoding.width
        nonzero_slots = [j for j in range(3)
                         if np.abs(state.h[j * w:(j + 1) * w]).max() > 0]
        assert nonzero_slots == [2]
        assert np.array_equal(state.h[2 * w:], np.tanh(net.encoding.codeword(1)))

    def test_cell_values_exact(self):
        net = build_lstm(DyckParams(4, 3), BINARY)
        state, _ = run_prefix(net, parse_string("(3 (4 )4 (1"))
        assert set(np.unique(state.c)) <= {-1.0, 0.0, 1.0}


class TestDecodeStack:
    @pytest.mark.parametrize("arch,enc", [("simple", ONEHOT), ("simple", BINARY),
                                          ("lstm", ONEHOT), ("lstm", BINARY),
                                          ("naive", None)])
    def test_examples(self, arch, enc):
        p = DyckParams(2, 3)
        net = build(arch, p, enc)
        state, _ = run_prefix(net, parse_string("(1"))
        assert decode_stack(net, state) == stack_state(1)
        state, _ = run_prefix(net, parse_string("(1 )1"))
        assert decode_stack(net, state) == EMPTY
        state, _ = run_prefix(net, parse_string("(2 (1 )1 (1"))
        assert decode_stack(net, state) == stack_state(2, 1) == run(
            p, parse_string("(2 (1 )1 (1"))

    def test_empty_prefix_decodes_empty(self):
        net = build_lstm(DyckParams(2, 2))
        assert decode_stack(net, initial_state(net)) == EMPTY

    def test_corrupt_state_raises(self):
        net = build_simple_rnn(DyckParams(2, 2))
        state = initial_state(net)
        state.h[0] = 0.4
        with pytest.raises(StackDecodeError):
            decode_stack(net, state)

    def test_gap_in_slots_raises(self):
        net = build_lstm(DyckParams(2, 3))
        state = initial_state(net)
        state.c[4] = 1.0  # slot 3 occupied while 1..2 empty
        with pytest.raises(StackDecodeError, match="contiguous"):
            decode_stack(net, state)

    @pytest.mark.parametrize("arch", ["simple", "lstm"])
    def test_matches_automaton_on_sampled_corpus(self, arch):
        p = DyckParams(3, 3)
        net = build(arch, p, BINARY)
        corpus = sample_strings(SamplerConfig(p, seed=2), 300)
        for string in corpus:
            state = initial_state(net)
            for t, token in enumerate(string[:-1], start=1):
                state, _ = step(net, state, token)
                assert decode_stack(net, state) == run(p, string[:t])


class TestNextDistribution:
    def test_empty_stack_margins(self):
        p = DyckParams(2, 3)
        net = build_simple_rnn(p, ONEHOT)
        dist = next_distribution(net, initial_state(net))
        eps = epsilon_for(2)
        assert eps == pytest.approx(1 / 6)
        assert dist[0] >= eps and dist[1] >= eps and dist[4] >= eps
        assert dist[2] <= 1 / 20 and dist[3] <= 1 / 20

    def test_full_stack_blocks_opens(self):
        p = DyckParams(2, 2)
        for arch, enc in [("simple", ONEHOT), ("lstm", BINARY), ("naive", None)]:
            net = build(arch, p, enc)
            state, _ = run_prefix(net, parse_string("(1 (1"))
            dist = next_distribution(net, state)
            assert dist[0] <= 1 / 20 and dist[1] <= 1 / 20
            assert dist[2] >= epsilon_for(2)  # the matching close

    def test_top_of_stack_selects_close(self):
        p = DyckParams(2, 3)
        net = build_lstm(p, BINARY)
        state, _ = run_prefix(net, parse_string("(1 (2"))
        dist = next_distribution(net, state)
        assert dist[3] >= epsilon_for(2)   # close 2 allowed
        assert dist[2] <= 1 / 20           # close 1 disallowed

    def test_distribution_sums_to_one(self):
        net = build_naive_dfa_rnn(DyckParams(2, 2))
        state, _ = run_prefix(net, parse_string("(1"))
        assert abs(next_distribution(net, state).sum() - 1.0) <= 1e-12


class TestRunPrefix:
    def test_empty_prefix_is_zero_state(self):
        net = build_lstm(DyckParams(2, 2))
        state, traces = run_prefix(net, ())
        assert state.t == 0
        assert np.all(state.h == 0.0) and np.all(state.c == 0.0)
        assert traces == []

    def test_trace_length(self):
        net = build_simple_rnn(DyckParams(2, 3))
        prefix = parse_string("(1 (2 )2")
        _, traces = run_prefix(net, prefix, want_trace=True)
        assert len(traces) == 3

    def test_end_token_not_consumable(self):
        net = build_simple_rnn(DyckParams(1, 1))
        with pytest.raises(ValueError):
            step(net, initial_state(net), Token("end"))

    def test_out_of_range_token_refused(self):
        """At k=2, (3 must not alias the input column of )1."""
        assert input_column(close_bracket(1), 2) == 2
        with pytest.raises(ValueError, match="out of range"):
            input_column(open_bracket(3), 2)
        net = build_simple_rnn(DyckParams(2, 2))
        for token in (open_bracket(3), close_bracket(3)):
            with pytest.raises(ValueError, match="out of range"):
                step(net, initial_state(net), token)

    def test_dimension_mismatch(self):
        net = build_simple_rnn(DyckParams(2, 2))
        bad = NetworkState(h=np.zeros(3), c=None, t=0)
        with pytest.raises(ValueError, match="dimension"):
            step(net, bad, open_bracket(1))


class TestSlotView:
    def test_simple_rnn_top_is_slot_one(self):
        net = build_simple_rnn(DyckParams(2, 3))
        state, _ = run_prefix(net, parse_string("(1 (2"))
        view = slot_view(net, state)
        assert view.top_index == 1
        assert view.slots[0].tolist() == [0, 1]  # newest element on top

    def test_lstm_top_is_last_occupied(self):
        net = build_lstm(DyckParams(2, 3))
        state, _ = run_prefix(net, parse_string("(1 (2"))
        assert slot_view(net, state).top_index == 2

    def test_empty_state_has_no_top(self):
        net = build_lstm(DyckParams(2, 3))
        assert slot_view(net, initial_state(net)).top_index is None

    def test_naive_has_no_slots(self):
        net = build_naive_dfa_rnn(DyckParams(1, 1))
        with pytest.raises(ValueError):
            slot_view(net, initial_state(net))


def test_format_trace_runs():
    net = build_lstm(DyckParams(2, 2), BINARY)
    text = format_trace(net, parse_string("(1 )1"))
    lines = text.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("t=1 token=(1")
    assert "f=" in lines[0] and "top=" in lines[0]


class TestSerialBlas:
    @pytest.fixture
    def threads(self):
        """numpy's OpenBLAS set to two threads for the test, then restored."""
        calls = _openblas_threads()
        if calls is None:
            pytest.skip("numpy's BLAS is not OpenBLAS")
        get, set_ = calls
        before = get()
        set_(2)
        yield get
        set_(before)

    def test_one_thread_inside_then_restored(self, threads):
        with serial_blas():
            assert threads() == 1
        assert threads() == 2

    def test_restored_after_a_raise(self, threads):
        with pytest.raises(ValueError):
            with serial_blas():
                raise ValueError("boom")
        assert threads() == 2

    def test_cli_commands_run_serially(self, threads, monkeypatch, capsys):
        seen = []

        def handler(args):
            seen.append(threads())
            raise ValueError("handler failed")

        monkeypatch.setattr(cli, "cmd_check", handler)
        assert cli.main(["check", "-k", "1", "-m", "1", "(1 )1 $"]) == 2
        assert seen == [1] and threads() == 2
        assert "handler failed" in capsys.readouterr().err


def _kernel_cases():
    constructions = [("simple", ONEHOT), ("simple", BINARY), ("lstm", ONEHOT),
                     ("lstm", BINARY), ("naive", None)]
    cases = []
    for arch, enc in constructions:
        cases += [(arch, enc, "intact"), (arch, enc, "beta0.5"),
                  (arch, enc, "softened"), (arch, enc, "zero_close_rows")]
        if arch == "simple":
            cases.append((arch, enc, "flip_push_entry"))
    return cases


def softened(net):
    """Sabotage: scale every recurrent, input and bias array into the
    unsaturated range."""
    return clone_with(net, **{name: getattr(net, name) * 0.01
                              for name in vars(net)
                              if name[0] in "WUb" and name != "b_v"})


class TestKernelParity:
    """runtime.step_rows writes the bytes the clip/exp kernel wrote, at every
    step of a corpus walk."""

    @pytest.mark.parametrize("arch,enc,variant", _kernel_cases())
    def test_walk_steps_match_the_reference_kernel(self, arch, enc, variant):
        p = DyckParams(2, 3)
        numeric = (NumericConfig.for_language(2, beta=0.5, lam=3.0)
                   if variant == "beta0.5" else None)
        net = build(arch, p, enc, numeric)
        sabotage = {"zero_close_rows": zero_close_rows,
                    "flip_push_entry": flip_push_entry,
                    "softened": softened}.get(variant)
        net = sabotage(net) if sabotage else net
        corpus = sample_strings(SamplerConfig(p, seed=5), 300)
        steps = unsaturated = 0
        for _, codes, t, h, c, acts in runtime.walk(net, corpus):
            if t == 0:
                ref_h, ref_c = h.copy(), None if c is None else c.copy()
                continue
            live = len(h)
            ref_h, ref_c, ref_acts = corpus_reference.step_rows(
                net, ref_h[:live], None if ref_c is None else ref_c[:live],
                codes[:live, t - 1])
            assert h.tobytes() == ref_h.tobytes()
            assert acts.tobytes() == ref_acts.tobytes()
            assert (c is None) == (ref_c is None)
            if c is not None:
                assert c.tobytes() == ref_c.tobytes()
            saturating = acts if c is not None else h
            unsaturated += np.count_nonzero(
                (saturating != 0.0) & (np.abs(saturating) != 1.0))
            steps += 1
        assert steps > 0
        # the constructions saturate every entry at any beta (lambda = 3
        # included); weights scaled into the unsaturated range make the
        # transcendentals run
        assert (unsaturated > 0) == (variant == "softened")


def full_gate_step(net, h, c, cols):
    """One LSTM step on the full (d, 4d) gate matrices stacked from the raw
    W_*, U_* and b_* arrays, never from the packed distinct units."""
    num, d = net.numeric, net.hidden_size
    W, U, b = (np.concatenate([getattr(net, f"{kind}_{gate}") for gate in "fioc"])
               for kind in "WUb")
    pre = h @ W.T + U.T[cols] + b
    acts = np.concatenate([corpus_reference.sat_sigmoid(num, pre[..., :3 * d]),
                           corpus_reference.sat_tanh(num, pre[..., 3 * d:])],
                          axis=-1)
    f, i, o, c_tilde = np.split(acts, 4, axis=-1)
    c_new = f * c + i * c_tilde
    return o * np.tanh(c_new), c_new, acts


def _exactness_cases():
    cases = [(DyckParams(k, m), enc, 60)
             for k, m in ((1, 1), (1, 3), (2, 2), (2, 3), (3, 2), (8, 3))
             for enc in (ONEHOT, BINARY) if k > 1 or enc == ONEHOT]
    return cases + [(DyckParams(128, 5), BINARY, 20)]


class TestDistinctUnitExactness:
    """The walk on the distinct gate units writes the bytes of the full
    gate product, and every saturating value is exactly 0, 1 or -1."""

    @pytest.mark.parametrize("p,enc,strings", _exactness_cases(),
                             ids=lambda v: str(v))
    def test_walk_matches_the_full_gate_product(self, p, enc, strings):
        net = build_lstm(p, enc)
        cfg = (SamplerConfig(p, seed=2027, min_len=181, max_len=360)
               if p.k == 128 else SamplerConfig(p, seed=3))
        steps = 0
        for _, codes, t, h, c, acts in runtime.walk(net, sample_strings(cfg, strings)):
            if t == 0:
                ref_h, ref_c = h.copy(), c.copy()
                continue
            live = len(h)
            ref_h, ref_c, ref_acts = full_gate_step(
                net, ref_h[:live], ref_c[:live], codes[:live, t - 1])
            assert h.tobytes() == ref_h.tobytes()
            assert c.tobytes() == ref_c.tobytes()
            assert acts.tobytes() == ref_acts.tobytes()
            d = net.hidden_size
            assert np.all((acts[:, :3 * d] == 0.0) | (acts[:, :3 * d] == 1.0))
            assert np.all(np.isin(acts[:, 3 * d:], (-1.0, 0.0, 1.0)))
            assert np.all(np.isin(c, (-1.0, 0.0, 1.0)))
            steps += live
        assert steps > 0
