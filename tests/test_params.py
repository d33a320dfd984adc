import math
import re
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from mgt_spectral import (CardanoThresholds, DataClass, InvalidInput, ModelParams,
                          NonDissipative, NonFinite, Regime, TheoremRates, applicable_exponents,
                          cardano_thresholds, high_frequency_rate, regime, theorem_rates,
                          validate)
from mgt_spectral.params import PARAM_MAX, PARAM_MIN, RATIO_MIN


def cubic_discriminant(tau, beta, m):
    # discriminant of tau*x^3 + x^2 + beta*m*x + m
    a, b, c, d = tau, 1.0, beta * m, m
    return (18 * a * b * c * d - 4 * b**3 * d + b * b * c * c
            - 4 * a * c**3 - 27 * a * a * d * d)


class TestValidate:
    def test_accepts_dissipative(self):
        p = validate(0.1, 1.0)
        assert p.tau == 0.1 and p.beta == 1.0

    def test_rejects_conservative_boundary(self):
        with pytest.raises(NonDissipative):
            validate(1.0, 1.0)

    def test_rejects_reversed(self):
        with pytest.raises(NonDissipative):
            validate(2.0, 1.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(NonDissipative):
            validate(0.0, 1.0)
        with pytest.raises(NonDissipative):
            validate(-0.5, 1.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(NonFinite):
            validate(float("nan"), 1.0)
        with pytest.raises(NonFinite):
            validate(0.1, float("inf"))

    @pytest.mark.parametrize("tau, beta", [(1e-200, 1.0), (1e-160, 1.0), (1e100, 1e200),
                                           (0.5, 1e160), (1e-300, 1e-299), (1.0, 1e78),
                                           (1e-26, 1e-6), (1.0, 2e25), (1e-21, 1.0)])
    def test_rejects_outside_the_range(self, tau, beta):
        message = (f"parameters must lie in [1e-25, 1e+25] with tau/beta >= 1e-20, "
                   f"got tau={tau}, beta={float(beta)}")
        with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
            validate(tau, beta)

    def test_range_edges_are_inside(self):
        for tau, beta in [(PARAM_MIN, 2.0 * PARAM_MIN), (PARAM_MAX / 2.0, PARAM_MAX),
                          (RATIO_MIN, 1.0), (PARAM_MIN, PARAM_MIN / RATIO_MIN)]:
            assert validate(tau, beta) == (tau, beta)


class TestRecords:
    """The three records: keyword fields, repr, immutability, equality and hashing."""

    @pytest.mark.parametrize("cls, fields, text", [
        (ModelParams, {"tau": 0.1, "beta": 1.0}, "ModelParams(tau=0.1, beta=1.0)"),
        (CardanoThresholds, {"c1": -253.0, "c2": 64.0, "m1": None, "m2": None},
         "CardanoThresholds(c1=-253.0, c2=64.0, m1=None, m2=None)"),
        (TheoremRates, {"poly_exponent": -0.25, "exp_rate": 1.0},
         "TheoremRates(poly_exponent=-0.25, exp_rate=1.0)"),
    ])
    def test_keyword_fields_repr_and_immutability(self, cls, fields, text):
        rec = cls(**fields)
        assert {name: getattr(rec, name) for name in fields} == fields
        assert repr(rec) == text
        assert rec == tuple(fields.values())
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(rec, name, 0.5)

    def test_ratio_is_a_property(self):
        p = validate(0.1, 1.0)
        assert isinstance(ModelParams.ratio, property)
        assert p.ratio == 0.1
        with pytest.raises(AttributeError):
            p.ratio = 0.5

    def test_equal_results_are_equal_and_hash_equal(self):
        pairs = [(validate(0.1, 1.0), validate(0.1, 1.0))]
        pairs.append(tuple(cardano_thresholds(p) for p in pairs[0]))
        pairs.append(tuple(theorem_rates(p, 3, 0, DataClass.L1) for p in pairs[0]))
        for a, b in pairs:
            assert a is not b
            assert a == b and hash(a) == hash(b)


class TestCardanoThresholds:
    def test_reference_values(self):
        thr = cardano_thresholds(validate(0.1, 1.0))
        assert thr.c1 == pytest.approx(-253.0, rel=1e-14)
        assert thr.c2 == pytest.approx(9.0, rel=1e-12)
        assert thr.m1 == pytest.approx(3.125, rel=1e-14)
        assert thr.m2 == pytest.approx(3.2, rel=1e-14)

    def test_critical_merge(self):
        thr = cardano_thresholds(validate(1.0 / 9.0, 1.0))
        assert thr.c1 == pytest.approx(-216.0, rel=1e-13)
        assert abs(thr.c2) < 1e-9
        assert thr.m1 == pytest.approx(3.0, rel=1e-10)
        assert thr.m2 == pytest.approx(thr.m1, rel=1e-10)

    def test_supercritical_absent(self):
        thr = cardano_thresholds(validate(0.5, 1.0))
        assert thr.c2 < 0.0
        assert thr.m1 is None and thr.m2 is None

    def test_double_root_at_thresholds(self):
        # the cubic's discriminant vanishes at m1 and m2
        rng = np.random.default_rng(42)
        for _ in range(200):
            beta = rng.uniform(0.2, 2.0)
            tau = rng.uniform(1e-3, beta / 9.0 * 0.999)
            p = validate(tau, beta)
            thr = cardano_thresholds(p)
            assert 0.0 < thr.m1 <= thr.m2
            for m in (thr.m1, thr.m2):
                # normalize against the discriminant's own term magnitudes
                a, b, c, d = tau, 1.0, beta * m, m
                scale = (18 * a * b * c * d + 4 * b**3 * d + b * b * c * c
                         + 4 * a * c**3 + 27 * a * a * d * d)
                assert abs(cubic_discriminant(tau, beta, m)) <= 1e-8 * scale

    def test_factored_discriminant_matches_raw(self):
        # c2 is computed as (r-9)^3 (r-1); must agree with c1^2 - 64 r^3
        rng = np.random.default_rng(8)
        for _ in range(300):
            beta = rng.uniform(0.1, 2.0)
            tau = rng.uniform(1e-3, beta * 0.999)
            thr = cardano_thresholds(validate(tau, beta))
            r = beta / tau
            raw = thr.c1**2 - 64.0 * r**3
            scale = thr.c1**2 + 64.0 * r**3
            assert abs(thr.c2 - raw) <= 1e-10 * scale

    def test_small_ratio_sweep_against_exact(self):
        # the two zeros of the discriminant's quadratic in k^2, in rational arithmetic with
        # a 60-digit square root; tau (-c1 - sqrt(c2)) / (8 beta^3) cancels like
        # eps (beta/tau) / 32 in m1: 4% off at tau/beta = 1e-16 and 0.0 at 1e-18
        def exact(tau, beta):
            t, b = Fraction(tau), Fraction(beta)
            s = 18 * t * b + b * b - 27 * t * t
            disc = s * s - 64 * t * b**3
            with localcontext() as ctx:
                ctx.prec = 60
                root = Fraction((Decimal(disc.numerator) / Decimal(disc.denominator)).sqrt())
            return (s - root) / (8 * t * b**3), (s + root) / (8 * t * b**3)

        rng = np.random.default_rng(39)
        ratios = 10.0 ** rng.uniform(-18.0, math.log10(0.111), 3000)
        betas = 10.0 ** rng.uniform(-3.0, 3.0, 3000)
        worst = 0.0
        for ratio, beta in zip(ratios.tolist(), betas.tolist()):
            thr = cardano_thresholds(validate(ratio * beta, beta))
            for got, ref in zip((thr.m1, thr.m2), exact(ratio * beta, beta)):
                worst = max(worst, float(abs(Fraction(got) - ref) / ref))
        assert worst <= 1e-14

    def test_thresholds_continuous_toward_merge(self):
        beta = 1.0
        gaps = []
        for eps in (1e-2, 1e-4, 1e-6):
            thr = cardano_thresholds(validate(beta / 9.0 * (1 - eps), beta))
            gaps.append(thr.m2 - thr.m1)
        assert gaps[0] > gaps[1] > gaps[2] > 0.0
        assert gaps[2] < 1e-2


class TestRegime:
    def test_subcritical(self):
        assert regime(validate(0.1, 1.0)) is Regime.SUB_CRITICAL

    def test_critical_exact_float(self):
        assert regime(validate(1.0 / 9.0, 1.0)) is Regime.CRITICAL

    def test_supercritical(self):
        assert regime(validate(0.5, 1.0)) is Regime.SUPER_CRITICAL

    def test_critical_band_scales(self):
        assert regime(validate(2.0 / 9.0, 2.0)) is Regime.CRITICAL


class TestTheoremRates:
    def test_dim3_improved(self):
        r = theorem_rates(validate(0.1, 1.0), 3, 0, DataClass.L1)
        assert r.poly_exponent == pytest.approx(-0.25)

    def test_dim1_generic(self):
        r = theorem_rates(validate(0.1, 1.0), 1, 0, DataClass.L1)
        assert r.poly_exponent == pytest.approx(0.75)

    def test_weighted(self):
        r = theorem_rates(validate(0.1, 1.0), 2, 1, DataClass.L1_WEIGHTED)
        assert r.poly_exponent == pytest.approx(-1.0)

    def test_exp_rate(self):
        r = theorem_rates(validate(0.1, 1.0), 1, 0, DataClass.L1)
        assert r.exp_rate == pytest.approx(min(1.0, 0.9 / 0.2))
        assert high_frequency_rate(validate(0.5, 1.0)) == pytest.approx(0.5)

    def test_improved_never_larger(self):
        p = validate(0.1, 1.0)
        for dim in range(1, 6):
            for j in range(0, 4):
                exps = applicable_exponents(dim, j, DataClass.L1)
                best = theorem_rates(p, dim, j, DataClass.L1).poly_exponent
                assert best == min(exps)
                if dim + j >= 3:
                    assert best <= 1.0 - dim / 4.0 - j / 2.0

    def test_numpy_integer_orders(self):
        p = validate(0.1, 1.0)
        for data_class in DataClass:
            assert (applicable_exponents(np.int64(3), np.int32(1), data_class)
                    == applicable_exponents(3, 1, data_class))
            assert (theorem_rates(p, np.int64(3), 0, data_class)
                    == theorem_rates(p, 3, 0, data_class))
