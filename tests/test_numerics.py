import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyckrnn.numerics import (GAMMA, NumericConfig, epsilon_for, sat_sigmoid,
                              sat_tanh, softmax, zeta_for)


@pytest.fixture
def cfg():
    return NumericConfig.for_language(k=2)


class TestSatSigmoid:
    def test_exact_one_at_threshold(self, cfg):
        assert sat_sigmoid(cfg, cfg.beta) == 1.0
        assert sat_sigmoid(cfg, cfg.beta + 5) == 1.0

    def test_exact_zero_at_negative_threshold(self, cfg):
        assert sat_sigmoid(cfg, -cfg.beta) == 0.0

    def test_midpoint(self, cfg):
        assert sat_sigmoid(cfg, 0.0) == 0.5

    def test_binary_inputs_saturate_cleanly(self, cfg):
        """sigma(beta*(2u-1)) = u and sigma(beta*(2u-3)) = 0 for u in {0,1}."""
        b = cfg.beta
        for u in (0.0, 1.0):
            assert sat_sigmoid(cfg, b * (2 * u - 1)) == u
            assert sat_sigmoid(cfg, b * (2 * u - 3)) == 0.0

    def test_matches_logistic_inside(self, cfg):
        for x in (-5.0, -1.2, 0.7, 3.0):
            assert sat_sigmoid(cfg, x) == pytest.approx(1 / (1 + math.exp(-x)),
                                                        abs=1e-15)

    def test_vectorized(self, cfg):
        out = sat_sigmoid(cfg, np.array([-cfg.beta, 0.0, cfg.beta]))
        assert out.tolist() == [0.0, 0.5, 1.0]

    def test_complement_identity(self, cfg):
        for x in (0.0, 0.3, 2.0, cfg.beta, cfg.beta + 3, 100.0):
            total = sat_sigmoid(cfg, x) + sat_sigmoid(cfg, -x)
            if abs(x) >= cfg.beta:
                assert total == 1.0
            else:
                assert total == pytest.approx(1.0, abs=1e-12)


class TestSatTanh:
    def test_saturation(self, cfg):
        assert sat_tanh(cfg, cfg.beta) == 1.0
        assert sat_tanh(cfg, -cfg.beta) == -1.0

    def test_odd_at_zero(self, cfg):
        assert sat_tanh(cfg, 0.0) == 0.0

    def test_gamma(self, cfg):
        assert sat_tanh(cfg, 1.0) == GAMMA == math.tanh(1.0)

    def test_matches_tanh_inside(self, cfg):
        for x in (-3.0, -0.5, 0.1, 4.0):
            assert sat_tanh(cfg, x) == pytest.approx(math.tanh(x), abs=1e-15)


class TestInPlace:
    """The in-place saturating functions return what the formulas built from
    temporaries returned, bit for bit."""

    @staticmethod
    def formula_sigmoid(cfg, arr):
        core = 1.0 / (1.0 + np.exp(-np.clip(arr, -cfg.beta, cfg.beta)))
        return np.where(arr >= cfg.beta, 1.0,
                        np.where(arr <= -cfg.beta, 0.0, core))

    @staticmethod
    def formula_tanh(cfg, arr):
        core = np.tanh(np.clip(arr, -cfg.beta, cfg.beta))
        return np.where(arr >= cfg.beta, 1.0,
                        np.where(arr <= -cfg.beta, -1.0, core))

    @pytest.mark.parametrize("beta", [0.5, 1.0, 20.0])
    def test_bit_identical_on_200k_values(self, beta):
        cfg = NumericConfig.for_language(k=2, beta=beta)
        values = np.random.default_rng(0).normal(0.0, 2.0 * beta, 200_000)
        special = [np.nan, np.inf, -np.inf, beta, -beta, 0.0, -0.0,
                   np.nextafter(beta, 0.0), np.nextafter(-beta, 0.0),
                   5e-324, -5e-324, np.nextafter(beta, np.inf),
                   np.nextafter(-beta, -np.inf), 1.0, -1.0]
        values[:len(special)] = special
        blocks = values.reshape(400, 500)
        for fn, formula in ((sat_sigmoid, self.formula_sigmoid),
                            (sat_tanh, self.formula_tanh)):
            got = fn(cfg, blocks)
            assert got.shape == blocks.shape
            assert got.tobytes() == formula(cfg, blocks).tobytes()
            # the same into a strided view of a larger output
            wide = np.full((400, 700), 7.0)
            fn(cfg, blocks, out=wide[:, 100:600])
            assert wide[:, 100:600].tobytes() == formula(cfg, blocks).tobytes()
            assert (wide[:, :100] == 7.0).all() and (wide[:, 600:] == 7.0).all()
        assert blocks.tobytes() == values.reshape(400, 500).tobytes()

    @pytest.mark.parametrize("beta", [0.5, 20.0])
    def test_saturated_entries_skip_the_transcendental(self, monkeypatch, beta):
        """Only entries strictly inside (-beta, beta), NaN among them, reach
        exp; only those that are also non-zero reach tanh."""
        cfg = NumericConfig.for_language(k=2, beta=beta)
        values = np.array([beta, -beta, 3 * beta, -np.inf, np.inf, 0.0, -0.0,
                           beta / 2, -beta / 3, np.nan])
        seen = []
        for name in ("exp", "tanh"):
            real = getattr(np, name)

            def counting(x, *args, real=real, **kwargs):
                seen.append(np.asarray(x).size)
                return real(x, *args, **kwargs)

            monkeypatch.setattr(np, name, counting)
        sat_sigmoid(cfg, values)
        assert seen == [5]  # two zeros, two inside, NaN
        seen.clear()
        sat_tanh(cfg, values)
        assert seen == [3]  # two inside, NaN
        seen.clear()
        sat_sigmoid(cfg, values[:5])
        sat_tanh(cfg, values[:7])
        assert seen == []
        assert np.signbit(sat_tanh(cfg, values)[6])

    def test_scalar_input_returns_float(self, cfg):
        for fn in (sat_sigmoid, sat_tanh):
            for x in (0.3, cfg.beta, np.float64(-50.0), np.array(1.5)):
                assert type(fn(cfg, x)) is float
        assert math.isnan(sat_sigmoid(cfg, float("nan")))
        assert sat_tanh(cfg, -math.inf) == -1.0


@settings(max_examples=200, deadline=None)
@given(st.floats(-100, 100), st.floats(-100, 100))
def test_saturating_functions_monotone(x, y):
    cfg = NumericConfig.for_language(k=2)
    lo, hi = min(x, y), max(x, y)
    assert sat_sigmoid(cfg, lo) <= sat_sigmoid(cfg, hi)
    assert sat_tanh(cfg, lo) <= sat_tanh(cfg, hi)


class TestSoftmax:
    def test_symmetry(self):
        assert softmax([0.0, 0.0]).tolist() == [0.5, 0.5]

    def test_constant_vector(self):
        for c in (-7.0, 0.0, 123.0):
            out = softmax([c, c, c])
            assert np.allclose(out, 1 / 3, atol=1e-15)

    def test_shift_invariance(self):
        logits = np.array([0.3, -2.0, 5.5, 1.0])
        assert np.abs(softmax(logits) - softmax(logits + 17.0)).max() <= 1e-12

    def test_sums_to_one(self):
        out = softmax(np.linspace(-40, 40, 17))
        assert abs(out.sum() - 1.0) <= 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            softmax([])

    @pytest.mark.parametrize("k", [1, 2, 8, 128])
    def test_margin_logit_pattern(self, k):
        """Logits +-0.5*zeta*gamma with k+1 allowed and k disallowed give every
        allowed symbol at least epsilon and every disallowed at most 1/(10k)."""
        zeta = zeta_for(k)
        assert zeta * GAMMA > 2.4
        half = 0.5 * zeta * GAMMA
        logits = np.array([half] * (k + 1) + [-half] * k)
        probs = softmax(logits)
        assert probs[:k + 1].min() >= epsilon_for(k)
        assert probs[k + 1:].max() <= 1 / (10 * k)


class TestNumericConfig:
    def test_defaults_satisfy_inequalities(self):
        for k in (1, 2, 32, 100000):
            cfg = NumericConfig.for_language(k)
            assert cfg.lam > 2 * cfg.beta / GAMMA
            assert cfg.zeta > 2.4 / GAMMA

    def test_lambda_too_small_rejected(self):
        with pytest.raises(ValueError, match="lambda"):
            NumericConfig(beta=20.0, lam=40.0, zeta=5.0)

    def test_zeta_too_small_rejected(self):
        with pytest.raises(ValueError, match="zeta"):
            NumericConfig(beta=20.0, lam=60.0, zeta=3.0)

    def test_beta_positive(self):
        with pytest.raises(ValueError, match="beta"):
            NumericConfig(beta=0.0, lam=60.0, zeta=5.0)

    @pytest.mark.parametrize("name,value", [
        ("beta", math.inf), ("lambda", math.inf), ("zeta", math.inf),
        ("lambda", -math.inf), ("zeta", math.nan)])
    def test_nonfinite_rejected(self, name, value):
        fields = {"beta": 20.0, "lambda": 60.0, "zeta": 5.0, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            NumericConfig.from_dict(fields)

    def test_round_trip(self):
        cfg = NumericConfig.for_language(3, beta=40.0)
        assert NumericConfig.from_dict(cfg.to_dict()) == cfg

    def test_epsilon_formula(self):
        assert epsilon_for(2) == pytest.approx(1 / 6)
        assert epsilon_for(128) == pytest.approx(1 / 258)
