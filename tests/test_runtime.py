import numpy as np
import pytest

from dyckrnn.automaton import (EMPTY, DyckParams, Token, close_bracket,
                               input_column, open_bracket, parse_string, run,
                               stack_state)
from dyckrnn.builders import build, build_lstm, build_naive_dfa_rnn, build_simple_rnn
from dyckrnn.encodings import BINARY, ONEHOT
from dyckrnn.numerics import epsilon_for
from dyckrnn import cli
from dyckrnn.runtime import (NetworkState, StackDecodeError, _openblas_threads,
                             decode_stack, format_trace, initial_state,
                             next_distribution, run_prefix, serial_blas,
                             slot_view, step)
from dyckrnn.sampler import SamplerConfig, sample_strings


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
