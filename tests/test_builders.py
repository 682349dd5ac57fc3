import json
import math
import os

import numpy as np
import pytest

from dyckrnn import builders
from dyckrnn.automaton import DyckParams
from dyckrnn.builders import (build, build_lstm, build_naive_dfa_rnn,
                              build_readout, build_simple_rnn,
                              enumerate_states, hidden_units)
from dyckrnn.encodings import (ARCH_LSTM, ARCH_NAIVE, ARCH_SIMPLE, BINARY,
                               ONEHOT, build_encoding)
from dyckrnn.numerics import NumericConfig
from dyckrnn.verify import check_generation_equivalence
from dyckrnn.weightio import from_document, load_weights, save_weights, to_document
from conftest import clone_with, zero_close_rows
import packing_reference

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def log2c(k):
    return max(1, math.ceil(math.log2(k)))


class TestHiddenUnitCounts:
    @pytest.mark.parametrize("k", [2, 3, 4, 8, 32, 128])
    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_formulas(self, k, m):
        assert hidden_units(ARCH_SIMPLE, ONEHOT, k, m) == 2 * m * k
        assert hidden_units(ARCH_LSTM, ONEHOT, k, m) == m * k
        assert hidden_units(ARCH_SIMPLE, BINARY, k, m) == 6 * m * log2c(k) - 2 * m
        assert hidden_units(ARCH_LSTM, BINARY, k, m) == 3 * m * log2c(k) - m

    def test_worked_large_example(self):
        assert hidden_units(ARCH_LSTM, BINARY, 100000, 3) == 150

    def test_binary_large_simple(self):
        assert hidden_units(ARCH_SIMPLE, BINARY, 128, 5) == 6 * 5 * 7 - 2 * 5 == 200

    def test_built_dimensions_match(self):
        p = DyckParams(2, 3)
        assert build_simple_rnn(p).hidden_size == 12
        assert build_lstm(p).hidden_size == 6
        net = build_lstm(DyckParams(128, 5), BINARY)
        assert net.hidden_size == 100
        assert net.W_f.shape == (100, 100)
        assert net.V.shape == (257, 100)


class TestSimpleRnnStructure:
    @pytest.mark.parametrize("enc", [ONEHOT, BINARY])
    def test_entry_sets(self, enc):
        net = build_simple_rnn(DyckParams(3, 2), enc)
        beta, zeta, gamma = net.numeric.beta, net.numeric.zeta, net.numeric.gamma
        assert set(np.unique(net.W)) <= {0.0, 2 * beta}
        assert set(np.unique(net.U)) <= {0.0, 2 * beta, -2 * beta}
        assert set(np.unique(net.b)) == {-beta}
        assert set(np.unique(net.V)) <= {0.0, zeta, -zeta}
        assert set(np.unique(net.b_v)) == {0.5 * zeta * gamma, -0.5 * zeta * gamma}

    def test_recurrent_matrix_is_stacked_shifts(self):
        net = build_simple_rnn(DyckParams(2, 3), ONEHOT)
        w, beta = 2, net.numeric.beta
        stack_dim = 3 * w
        push = net.W[:stack_dim, :stack_dim]
        pop = net.W[stack_dim:, :stack_dim]
        assert np.array_equal(push, 2 * beta * np.eye(stack_dim, k=-w))
        assert np.array_equal(pop, 2 * beta * np.eye(stack_dim, k=w))
        # both halves are read identically
        assert np.array_equal(net.W[:, :stack_dim], net.W[:, stack_dim:])

    def test_input_matrix_masks(self):
        net = build_simple_rnn(DyckParams(2, 2), ONEHOT)
        beta = net.numeric.beta
        stack_dim = 4
        # open column 0: codeword into push slot 1, pop half erased
        col = net.U[:, 0]
        assert col[:2].tolist() == [2 * beta, 0.0]
        assert np.all(col[2:stack_dim] == 0.0)
        assert np.all(col[stack_dim:] == -2 * beta)
        # close column: push half erased, pop half untouched
        col = net.U[:, 2]
        assert np.all(col[:stack_dim] == -2 * beta)
        assert np.all(col[stack_dim:] == 0.0)


class TestLstmStructure:
    @pytest.mark.parametrize("enc", [ONEHOT, BINARY])
    def test_candidate_recurrence_is_zero(self, enc):
        net = build_lstm(DyckParams(4, 3), enc)
        assert np.all(net.W_c == 0.0)

    @pytest.mark.parametrize("enc", [ONEHOT, BINARY])
    def test_gate_entry_sets(self, enc):
        net = build_lstm(DyckParams(4, 3), enc)
        lam, lg = net.numeric.lam, net.numeric.lam * net.numeric.gamma
        assert set(np.unique(net.W_f)) <= {0.0, -lam}
        assert set(np.unique(net.W_i)) <= {0.0, -lam, lam}
        assert set(np.unique(net.W_o)) <= {0.0, -lam, -2 * lam}
        assert set(np.unique(net.U_f)) <= {0.0, -lg}
        assert set(np.unique(net.U_i)) <= {0.0, lg}
        assert set(np.unique(net.U_o)) <= {0.0, lg}
        assert set(np.unique(net.U_c)) <= {0.0, lam, -lam}
        assert set(np.unique(net.b_f)) == {1.5 * lg}
        assert set(np.unique(net.b_i)) == {-0.5 * lg, -1.5 * lg}
        assert set(np.unique(net.b_o)) == {0.5 * lg}
        assert set(np.unique(net.b_c)) == {0.0}

    def test_gate_block_layout(self):
        net = build_lstm(DyckParams(2, 3), ONEHOT)
        lam, w = net.numeric.lam, 2

        def block(mat, j, jp):
            return mat[j * w:(j + 1) * w, jp * w:(jp + 1) * w]

        for j in range(3):
            for jp in range(3):
                assert np.all(block(net.W_f, j, jp) == (-lam if j == jp else 0.0))
                if j == 0:
                    expect_i = -lam
                elif jp == j - 1:
                    expect_i = lam
                else:
                    expect_i = 0.0
                assert np.all(block(net.W_i, j, jp) == expect_i)
                if jp in (j, j + 1):
                    expect_o = -lam
                elif jp > j + 1:
                    expect_o = -2 * lam
                else:
                    expect_o = 0.0
                assert np.all(block(net.W_o, j, jp) == expect_o)


class TestReadoutValidity:
    """Dot products of readout rows with every codeword, per slot."""

    @pytest.mark.parametrize("arch", [ARCH_SIMPLE, ARCH_LSTM])
    @pytest.mark.parametrize("enc_kind", [ONEHOT, BINARY])
    @pytest.mark.parametrize("k", [2, 3, 8])
    def test_softmax_validity(self, arch, enc_kind, k):
        params = DyckParams(k, 3)
        enc = build_encoding(params, enc_kind, arch)
        numeric = NumericConfig.for_language(k)
        V, b_v = build_readout(params, enc, numeric, arch)
        zeta = numeric.zeta
        m, w = params.m, enc.width

        def row_slot(row, slot):
            # slot pattern; for the simple RNN both halves carry it
            return V[row, slot * w:(slot + 1) * w]

        top_slot = 0 if arch == ARCH_SIMPLE else m - 1
        for j in range(1, k + 1):
            code = enc.codeword(j)
            for i in range(1, k + 1):
                dot = row_slot(k + i - 1, top_slot) @ code
                if i == j:
                    assert dot == pytest.approx(zeta, abs=1e-12)
                else:
                    assert dot <= 1e-12
            # fullness detector on slot m
            for i in range(1, k + 1):
                assert row_slot(i - 1, m - 1) @ code == pytest.approx(-zeta,
                                                                      abs=1e-12)
            # emptiness detector on every slot
            for slot in range(m):
                assert row_slot(2 * k, slot) @ code == pytest.approx(-zeta,
                                                                     abs=1e-12)

    def test_open_rows_clear_below_slot_m(self):
        params = DyckParams(2, 3)
        enc = build_encoding(params, ONEHOT)
        V, _ = build_readout(params, enc, NumericConfig.for_language(2), ARCH_LSTM)
        w = enc.width
        assert np.all(V[:2, :2 * w] == 0.0)


class TestNaiveConstruction:
    def test_hidden_dimension(self):
        net = build_naive_dfa_rnn(DyckParams(2, 2))
        assert net.hidden_size == (1 + 2 + 4 + 2) * 4 == 36

    def test_state_enumeration_order(self):
        states = enumerate_states(DyckParams(2, 1))
        rendered = [str(s) for s in states]
        assert rendered == ["[]", "[(1]", "[(2]", "[$]", "reject"]

    def test_parameter_budget_guard(self):
        with pytest.raises(ValueError, match="budget"):
            build_naive_dfa_rnn(DyckParams(4, 4))

    def test_budget_refused_before_enumerating(self, monkeypatch):
        """(12, 5) has about 270k stack states; the refusal must not list them."""
        def no_enumeration(params):
            raise AssertionError("enumerate_states called")

        monkeypatch.setattr(builders, "enumerate_states", no_enumeration)
        with pytest.raises(ValueError, match="budget"):
            build_naive_dfa_rnn(DyckParams(12, 5))

    def test_budget_override(self):
        net = build_naive_dfa_rnn(DyckParams(4, 4), parameter_budget=10**8)
        assert net.hidden_size == (1 + 4 + 16 + 64 + 256 + 2) * 8

    def test_entry_sets(self):
        net = build_naive_dfa_rnn(DyckParams(2, 2))
        s = net.scale
        zg_half = 0.5 * net.numeric.zeta * net.numeric.gamma
        assert set(np.unique(net.W)) <= {0.0, s, -s}
        assert set(np.unique(net.b)) <= {-0.5 * s, -1.5 * s}
        assert set(np.unique(net.U)) <= {0.0, s}
        assert set(np.unique(net.V)) <= {0.0, 2 * zg_half, -2 * zg_half}
        assert set(np.unique(net.b_v)) <= {zg_half, -zg_half}


class TestWeightIO:
    @pytest.mark.parametrize("arch,enc", [(ARCH_SIMPLE, ONEHOT),
                                          (ARCH_SIMPLE, BINARY),
                                          (ARCH_LSTM, ONEHOT),
                                          (ARCH_LSTM, BINARY),
                                          (ARCH_NAIVE, None)])
    def test_round_trip(self, tmp_path, arch, enc):
        params = DyckParams(2, 2)
        net = build(arch, params, enc)
        path = tmp_path / "weights.json"
        save_weights(str(path), net)
        loaded = load_weights(str(path))
        assert type(loaded) is type(net)
        for name, entry in to_document(net)["matrices"].items():
            assert np.array_equal(getattr(loaded, name), getattr(net, name)), name
        # verification booleans reproduce bit for bit
        before = check_generation_equivalence(net, max_len=6)
        after = check_generation_equivalence(loaded, max_len=6)
        assert before.passed == after.passed
        assert before.details == after.details

    @pytest.mark.parametrize("arch,enc", [(ARCH_SIMPLE, ONEHOT),
                                          (ARCH_SIMPLE, BINARY),
                                          (ARCH_LSTM, ONEHOT),
                                          (ARCH_LSTM, BINARY),
                                          (ARCH_NAIVE, None)])
    def test_streamed_file_equals_one_shot_document(self, tmp_path, arch, enc):
        net = build(arch, DyckParams(2, 3), enc)
        path = tmp_path / "weights.json"
        save_weights(str(path), net)
        assert path.read_text() == json.dumps(to_document(net)) + "\n"

    @pytest.mark.parametrize("k,m,arch,enc", [
        (1, 1, ARCH_SIMPLE, ONEHOT), (1, 1, ARCH_LSTM, ONEHOT),
        (1, 1, ARCH_NAIVE, None), (2, 2, ARCH_NAIVE, None),
        (8, 3, ARCH_SIMPLE, ONEHOT), (8, 3, ARCH_SIMPLE, BINARY),
        (8, 3, ARCH_LSTM, ONEHOT), (8, 3, ARCH_LSTM, BINARY),
        (128, 5, ARCH_LSTM, BINARY), (128, 5, ARCH_SIMPLE, BINARY)])
    def test_value_spelling_matches_one_shot_document(self, tmp_path, k, m,
                                                       arch, enc):
        """The writer spells each distinct matrix value once; the file is
        still the one-shot document, byte for byte."""
        net = build(arch, DyckParams(k, m), enc)
        path = tmp_path / "weights.json"
        save_weights(str(path), net)
        assert path.read_text() == json.dumps(to_document(net)) + "\n"

    def test_signed_zeros_and_many_values_spelled_apart(self, tmp_path):
        net = build_simple_rnn(DyckParams(2, 2), BINARY)
        W = np.random.default_rng(0).normal(size=net.W.shape) * 1e3
        W[0, :3] = [-0.0, 0.0, -0.0]
        W[1, :3] = [5e-324, -1e308, 1 / 3]
        V = net.V.copy()
        V[0, 0] = -0.0
        net = clone_with(net, W=W, V=V)
        path = tmp_path / "weights.json"
        save_weights(str(path), net)
        text = path.read_text()
        assert text == json.dumps(to_document(net)) + "\n"
        assert '"data": [-0.0, 0.0, -0.0, ' in text
        loaded = load_weights(str(path))
        assert loaded.W.tobytes() == W.tobytes()
        assert loaded.V.tobytes() == V.tobytes()

    def test_document_json_round_trip_exact(self):
        net = build_simple_rnn(DyckParams(2, 2), BINARY)
        doc = to_document(net)
        recovered = from_document(json.loads(json.dumps(doc)))
        assert np.array_equal(recovered.W, net.W)
        assert recovered.numeric == net.numeric

    def test_bad_schema_rejected(self):
        net = build_simple_rnn(DyckParams(1, 1))
        doc = to_document(net)
        doc["schema_version"] = 99
        with pytest.raises(ValueError, match="schema"):
            from_document(doc)

    @pytest.mark.parametrize("arch,enc", [(ARCH_SIMPLE, BINARY),
                                          (ARCH_LSTM, ONEHOT), (ARCH_NAIVE, None)])
    def test_matrix_shapes_checked_on_load(self, arch, enc):
        doc = to_document(build(arch, DyckParams(2, 2), enc))
        for name, entry in doc["matrices"].items():
            bad = json.loads(json.dumps(doc))
            bad["matrices"][name] = {"shape": [1, len(entry["data"])],
                                     "data": entry["data"]}
            with pytest.raises(ValueError, match=f"matrix {name} has shape"):
                from_document(bad)
        short = json.loads(json.dumps(doc))
        short["matrices"]["V"]["data"].pop()
        with pytest.raises(ValueError, match="matrix V"):
            from_document(short)

    @pytest.mark.parametrize("drop", ["numeric_config", "matrices", "k",
                                      "architecture"])
    def test_missing_field_rejected(self, drop):
        doc = to_document(build_simple_rnn(DyckParams(2, 2)))
        del doc[drop]
        with pytest.raises(ValueError, match=repr(drop)):
            from_document(doc)


@pytest.mark.parametrize("name,arch,enc", [
    ("simple_onehot_k2_m2", ARCH_SIMPLE, ONEHOT),
    ("simple_binary_k2_m2", ARCH_SIMPLE, BINARY),
    ("lstm_onehot_k2_m2", ARCH_LSTM, ONEHOT),
    ("lstm_binary_k2_m2", ARCH_LSTM, BINARY),
])
def test_golden_weight_files(name, arch, enc):
    """Builder output is frozen against checked-in weight documents."""
    with open(os.path.join(GOLDEN_DIR, name + ".json")) as handle:
        golden = json.load(handle)
    built = to_document(build(arch, DyckParams(2, 2), enc))
    assert built == golden


@pytest.mark.parametrize("name", ["simple_onehot_k2_m2", "simple_binary_k2_m2",
                                  "lstm_onehot_k2_m2", "lstm_binary_k2_m2"])
def test_schema_1_reader(name):
    """A schema 1 document (the same matrices plus an input embedding E) loads
    when E is the identity and is refused, naming E, otherwise."""
    with open(os.path.join(GOLDEN_DIR, name + ".json")) as handle:
        v2 = json.load(handle)
    v1 = json.loads(json.dumps(v2))
    v1["schema_version"] = 1
    v1["matrices"]["E"] = {"shape": [4, 4], "data": np.eye(4).ravel().tolist()}
    loaded, expected = from_document(v1), from_document(v2)
    assert type(loaded) is type(expected) and not hasattr(loaded, "E")
    for mat in v2["matrices"]:
        assert np.array_equal(getattr(loaded, mat), getattr(expected, mat)), mat
    assert to_document(loaded) == v2
    v1["matrices"]["E"]["data"][1] = 1.0
    with pytest.raises(ValueError, match="matrix E is not the identity"):
        from_document(v1)
    v1["matrices"]["E"] = {"shape": [3, 3], "data": np.eye(3).ravel().tolist()}
    with pytest.raises(ValueError, match=r"matrix E has shape \(3, 3\)"):
        from_document(v1)


GATE_ARRAYS = [f"{kind}_{gate}" for kind in "WUb" for gate in "fioc"]


def _raw_gates(net, kind):
    """The four gates' W, U or b stacked in the order f, i, o, c~."""
    return np.concatenate([getattr(net, f"{kind}_{gate}") for gate in "fioc"])


def _dense_lstm(k, m, seed):
    """An LSTM whose gate arrays are random, so no two units repeat."""
    base = build_lstm(DyckParams(k, m), ONEHOT)
    rng = np.random.default_rng(seed)
    return clone_with(base, **{name: rng.normal(size=getattr(base, name).shape)
                               for name in GATE_ARRAYS})


def _copied_units_lstm():
    """An LSTM whose input-gate unit 1 copies forget unit 1 exactly, unit 0
    copies forget unit 0 but for the sign of its zeros, and candidate unit
    2 copies forget unit 2 exactly."""
    net = build_lstm(DyckParams(2, 3), BINARY)
    copies = {name: getattr(net, name).copy()
              for name in ("W_i", "U_i", "b_i", "W_c", "U_c", "b_c")}
    for kind in "WUb":
        copies[f"{kind}_i"][:2] = getattr(net, f"{kind}_f")[:2]
        copies[f"{kind}_c"][2] = getattr(net, f"{kind}_f")[2]
    copies["W_i"][0, copies["W_i"][0] == 0.0] = -0.0
    return clone_with(net, **copies)


def _packing_cases(tmp_path):
    """(label, LstmParams) for every LSTM build, its sabotages, weight
    files read from disk, and parameter sets with no repeated unit."""
    cases = [(f"{enc} k={k} m={m}", build_lstm(DyckParams(k, m), enc))
             for k, m in ((2, 2), (2, 3), (8, 3), (32, 3))
             for enc in (ONEHOT, BINARY)]
    net = build_lstm(DyckParams(2, 3), BINARY)
    cases += [
        ("zero_close_rows", zero_close_rows(net)),
        ("softened", clone_with(net, **{name: getattr(net, name) * 0.01
                                        for name in GATE_ARRAYS})),
        ("beta 0.5", build_lstm(DyckParams(2, 3), ONEHOT,
                                NumericConfig.for_language(2, beta=0.5, lam=3.0))),
        ("copied units", _copied_units_lstm())]
    for name in ("lstm_onehot_k2_m2", "lstm_binary_k2_m2"):
        with open(os.path.join(GOLDEN_DIR, name + ".json")) as handle:
            doc = json.load(handle)
        path = tmp_path / f"{name}_v2.json"
        path.write_text(json.dumps(doc))
        cases.append((f"{name} schema 2", load_weights(str(path))))
        doc["schema_version"] = 1
        doc["matrices"]["E"] = {"shape": [4, 4],
                                "data": np.eye(4).ravel().tolist()}
        path = tmp_path / f"{name}_v1.json"
        path.write_text(json.dumps(doc))
        cases.append((f"{name} schema 1", load_weights(str(path))))
    cases += [(f"dense k={k} m={m}", _dense_lstm(k, m, seed=k))
              for k, m in ((2, 2), (3, 3))]
    return cases


class TestLstmPacking:
    """LstmParams.packed keeps each gate unit once and gathers back to the
    raw gate matrices byte for byte."""

    def test_distinct_units_gather_to_the_raw_gates(self, tmp_path):
        for label, net in _packing_cases(tmp_path):
            d = net.hidden_size
            Wt, Ut, b, sigmoids, inverse = net.packed
            assert inverse.shape == (4 * d,), label
            assert Wt[:, inverse].T.tobytes() == _raw_gates(net, "W").tobytes(), label
            assert Ut[:, inverse].T.tobytes() == _raw_gates(net, "U").tobytes(), label
            assert b[inverse].tobytes() == _raw_gates(net, "b").tobytes(), label
            # f, i and o units never share a column with a c~ unit
            assert inverse[:3 * d].max() < sigmoids <= inverse[3 * d:].min(), label
            # every column is used, and no two columns of a group hold the
            # same unit
            assert np.array_equal(np.unique(inverse), np.arange(b.size)), label
            units = [unit.tobytes() for unit in np.vstack([Wt, Ut, b]).T]
            assert len(set(units[:sigmoids])) == sigmoids, label
            assert len(set(units[sigmoids:])) == b.size - sigmoids, label

    @pytest.mark.parametrize("k,m", [(2, 2), (8, 3), (128, 5)])
    @pytest.mark.parametrize("enc", [ONEHOT, BINARY])
    def test_constructions_pack_as_the_sorting_reference(self, k, m, enc):
        self.assert_packs_as_the_reference(build_lstm(DyckParams(k, m), enc))

    def test_other_parameter_sets_pack_as_the_sorting_reference(self, tmp_path):
        for label, net in _packing_cases(tmp_path):
            self.assert_packs_as_the_reference(net, label)

    @staticmethod
    def assert_packs_as_the_reference(net, label=""):
        """All five outputs equal np.unique's, dtypes and bytes: a column
        order that differs would round the step's products differently."""
        got, want = net.packed, packing_reference.packed(net)
        assert got[3] == want[3], label
        for a, b in zip(got[:3] + got[4:], want[:3] + want[4:]):
            assert (a.dtype, a.shape, a.flags.c_contiguous) == \
                (b.dtype, b.shape, b.flags.c_contiguous), label
            assert a.tobytes() == b.tobytes(), label

    def test_equal_units_share_a_column(self):
        net = _copied_units_lstm()
        inverse, d = net.packed[4], net.hidden_size
        assert inverse[d + 1] == inverse[1] and inverse[d] != inverse[0]
        assert inverse[3 * d + 2] != inverse[2]

    @pytest.mark.parametrize("k,m,enc,distinct,sigmoids", [
        (128, 5, BINARY, 30, 15), (8, 3, ONEHOT, 17, 9), (8, 3, BINARY, 16, 9)])
    def test_constructions_repeat_their_units(self, k, m, enc, distinct,
                                              sigmoids):
        Wt, Ut, b, n_sigmoid, inverse = build_lstm(DyckParams(k, m), enc).packed
        assert Wt.shape[1] == Ut.shape[1] == b.size == distinct
        assert n_sigmoid == sigmoids
        assert inverse.size == 4 * hidden_units(ARCH_LSTM, enc, k, m)

    @pytest.mark.parametrize("k,m", [(2, 2), (3, 3)])
    def test_no_repeated_unit_keeps_every_unit(self, k, m):
        net = _dense_lstm(k, m, seed=k)
        d = net.hidden_size
        _, _, b, sigmoids, inverse = net.packed
        assert b.size == 4 * d and sigmoids == 3 * d
        assert sorted(inverse[:3 * d]) == list(range(3 * d))


def test_build_dispatch_unknown():
    with pytest.raises(ValueError, match="architecture"):
        build("transformer", DyckParams(2, 2), ONEHOT)
