import json
import math

import numpy as np
import pytest

from mgt_spectral import (DataClass, DegenerateFit, EmptyInput, FrequencyProfile,
                          ProfileKind, decay_curve, decay_curve_rows,
                          decay_curve_summary, fit_decay_slope, infer_data_class,
                          integral_lemma_check, region_contributions, region_rates,
                          region_split, sobolev_norm_sq, v_norm_sq, validate)
from mgt_spectral.decay import report_to_json

P = validate(0.1, 1.0)
GAUSS = FrequencyProfile.gaussian()
ZERO = FrequencyProfile.zero()
MF = FrequencyProfile.moment_free()


class TestProfiles:
    def test_gaussian_shape(self):
        k = np.array([0.0, 1.0, 2.0])
        prof = FrequencyProfile.gaussian(scale=2.0, amplitude=3.0)
        assert prof(k) == pytest.approx(3.0 * np.exp(-0.5 * (2.0 * k) ** 2))

    def test_moment_free_vanishes_at_zero(self):
        prof = FrequencyProfile.moment_free(scale=1.5, amplitude=2.0)
        k = np.array([0.0, 0.5, 1.0])
        vals = prof(k)
        assert vals[0] == 0.0
        assert np.all(np.abs(vals) <= 2.0 * 1.5 * k + 1e-15)
        assert prof.vanishes_at_zero

    def test_zero_profile(self):
        assert ZERO(np.array([0.0, 1.0])) == pytest.approx([0.0, 0.0])
        assert ZERO.vanishes_at_zero

    def test_custom_profile(self):
        prof = FrequencyProfile(ProfileKind.CUSTOM, scale=1.0, amplitude=1.0,
                                evaluator=lambda k: np.exp(-k * k))
        assert prof(np.array([1.0]))[0] == pytest.approx(math.exp(-1.0))
        with pytest.raises(ValueError):
            FrequencyProfile(ProfileKind.CUSTOM, 1.0, 1.0)

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            FrequencyProfile.gaussian(scale=0.0)

    def test_data_class_inference(self):
        assert infer_data_class((GAUSS, MF, MF)) is DataClass.L1_WEIGHTED
        assert infer_data_class((GAUSS, GAUSS, ZERO)) is DataClass.L1
        assert infer_data_class((GAUSS, ZERO, ZERO)) is DataClass.L1_WEIGHTED


class TestRegionSplit:
    def test_subcritical_values(self):
        split = region_split(P)
        assert split.nu1 == pytest.approx(0.5)
        assert split.nu2 == pytest.approx(2.0)
        assert split.nu1 < math.sqrt(3.125) and split.nu2 > math.sqrt(3.2)

    def test_supercritical_defaults(self):
        split = region_split(validate(0.5, 1.0))
        assert (split.nu1, split.nu2) == (0.5, 2.0)

    def test_order(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            beta = rng.uniform(0.2, 2.0)
            tau = rng.uniform(1e-3, beta * 0.99)
            split = region_split(validate(tau, beta))
            assert split.nu1 < split.nu2

    def test_rates(self):
        c3, c4 = region_rates(P)
        assert c3 == pytest.approx(1.0)
        assert 0.0 < c4 <= 1.0


class TestNormQuadrature:
    def test_zero_data(self):
        assert sobolev_norm_sq(P, (ZERO, ZERO, ZERO), 3, 0, 5.0, 1e-10) == 0.0

    def test_gaussian_t0_oracle(self):
        # int_0^inf e^(-k^2) dk = sqrt(pi)/2
        val = sobolev_norm_sq(P, (GAUSS, ZERO, ZERO), 1, 0, 0.0, 1e-11)
        assert val == pytest.approx(math.sqrt(math.pi) / 2.0, abs=1e-10)

    def test_t0_with_derivative_weight(self):
        # int_0^inf k^2 e^(-k^2) dk = sqrt(pi)/4  (dim=3, j=0)
        val = sobolev_norm_sq(P, (GAUSS, ZERO, ZERO), 3, 0, 0.0, 1e-11)
        assert val == pytest.approx(math.sqrt(math.pi) / 4.0, abs=1e-10)

    def test_large_t_dim3_rate(self):
        vals = {t: sobolev_norm_sq(P, (ZERO, ZERO, GAUSS), 3, 0, t, 1e-11)
                for t in (1e3, 4e3)}
        # squared norm ~ t^(-1/2): quadrupling t halves the value
        assert vals[1e3] / vals[4e3] == pytest.approx(2.0, rel=0.02)

    def test_tolerance_convergence(self):
        coarse = sobolev_norm_sq(P, (GAUSS, GAUSS, ZERO), 2, 1, 3.0, 1e-6)
        fine = sobolev_norm_sq(P, (GAUSS, GAUSS, ZERO), 2, 1, 3.0, 5e-7)
        assert abs(coarse - fine) < 1e-6

    def test_v_norm_positive_and_decaying(self):
        a = v_norm_sq(P, (GAUSS, GAUSS, GAUSS), 2, 0, 1.0, 1e-10)
        b = v_norm_sq(P, (GAUSS, GAUSS, GAUSS), 2, 0, 50.0, 1e-10)
        assert a > b > 0.0

    def test_validates_args(self):
        with pytest.raises(ValueError):
            sobolev_norm_sq(P, (GAUSS, ZERO, ZERO), 0, 0, 1.0, 1e-10)
        with pytest.raises(ValueError):
            sobolev_norm_sq(P, (GAUSS, ZERO, ZERO), 1, -1, 1.0, 1e-10)
        with pytest.raises(ValueError):
            sobolev_norm_sq(P, (GAUSS, ZERO, ZERO), 1, 0, -1.0, 1e-10)
        with pytest.raises(ValueError):
            sobolev_norm_sq(P, (GAUSS, ZERO, ZERO), 1, 0, 1.0, 0.0)


class TestRegionContributions:
    def test_additivity(self):
        rng = np.random.default_rng(7)
        for dim, j, t in [(1, 0, 0.0), (3, 0, 2.0), (2, 1, 10.0)]:
            amp = rng.uniform(0.5, 2.0)
            data = (FrequencyProfile.gaussian(amplitude=amp), GAUSS, MF)
            tol = 1e-10
            rc = region_contributions(P, data, dim, j, t, quad_tol=tol)
            total = sobolev_norm_sq(P, data, dim, j, t, tol)
            assert abs(rc.low + rc.mid + rc.high - total) <= 2.0 * tol

    def test_large_t_low_dominates(self):
        data = (GAUSS, GAUSS, GAUSS)
        rc = region_contributions(P, data, 2, 0, 100.0, quad_tol=1e-13)
        total = rc.low + rc.mid + rc.high
        assert rc.low / total > 0.999999

    def test_exponential_region_decay(self):
        data = (GAUSS, GAUSS, GAUSS)
        c3, c4 = region_rates(P)
        tol = 1e-12
        rc0 = region_contributions(P, data, 2, 0, 0.0, quad_tol=tol)
        for t in (10.0, 30.0):
            rc = region_contributions(P, data, 2, 0, t, quad_tol=tol)
            assert rc.mid <= rc0.mid * math.exp(-2 * c4 * t) + 2 * tol
            assert rc.high <= rc0.high * math.exp(-2 * c3 * t) + 2 * tol


class TestSlopeFit:
    def test_exact_power_law(self):
        t = np.geomspace(1.0, 1e4, 20)
        assert fit_decay_slope(t, (1 + t) ** -0.25) == pytest.approx(-0.25, abs=1e-12)

    def test_constant(self):
        t = np.geomspace(1.0, 1e3, 10)
        assert fit_decay_slope(t, np.full(10, 2.7)) == pytest.approx(0.0, abs=1e-12)

    def test_scale_invariance(self):
        t = np.geomspace(1.0, 1e3, 10)
        assert fit_decay_slope(t, 3.0 * (1 + t) ** 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_degenerate_window(self):
        with pytest.raises(DegenerateFit):
            fit_decay_slope([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(DegenerateFit):
            fit_decay_slope([1.0, 2.0, 3.0, 4.0], [1.0, -1.0, 1.0, 1.0], window=(0, 4))


class TestDecayCurve:
    def test_first_entry_is_t0_norm(self):
        ts = np.array([0.0, 1.0, 2.0, 4.0, 8.0])
        curve = decay_curve(P, (GAUSS, ZERO, ZERO), 1, 0, ts, 1e-10)
        assert curve.values[0] == pytest.approx(math.sqrt(math.sqrt(math.pi) / 2.0), rel=1e-8)

    def test_dim3_fitted_slope(self):
        ts = np.geomspace(1e2, 1e4, 13)
        curve = decay_curve(P, (ZERO, ZERO, GAUSS), 3, 0, ts, 1e-10)
        assert curve.bound_exponent == pytest.approx(-0.25)
        assert curve.fitted_slope == pytest.approx(-0.25, abs=0.03)

    def test_bound_constant_covers_curve(self):
        ts = np.geomspace(1e2, 1e4, 9)
        curve = decay_curve(P, (ZERO, GAUSS, ZERO), 1, 0, ts, 1e-8)
        shape = (1.0 + curve.times) ** curve.bound_exponent
        assert np.all(curve.values <= curve.bound_constant_measured * shape * (1 + 1e-12))

    def test_bound_dim2_j1_early_window(self):
        # dim + j = 3 engages the improved exponent -(dim-2)/4 - j/2 = -1/2
        ts = np.geomspace(1e2, 1e4, 9)
        curve = decay_curve(P, (GAUSS, GAUSS, ZERO), 2, 1, ts, 1e-10)
        assert curve.bound_exponent == pytest.approx(-0.5)
        shape = (1.0 + curve.times) ** curve.bound_exponent
        c_early = float(np.max(curve.values[:4] / shape[:4]))
        assert np.all(curve.values <= 1.01 * c_early * shape + 1e-8)

    def test_rows_and_summary(self):
        ts = np.geomspace(1.0, 10.0, 5)
        curve = decay_curve(P, (GAUSS, ZERO, ZERO), 2, 0, ts, 1e-9)
        rows = decay_curve_rows(curve)
        assert len(rows) == 5 and len(rows[0]) == 3
        summary = decay_curve_summary(curve)
        payload = json.loads(json.dumps(summary))
        assert payload["tau"] == P.tau and payload["dim"] == 2
        assert "fitted_slope" in payload and "bound_exponent" in payload

    def test_grid_validation(self):
        with pytest.raises(EmptyInput):
            decay_curve(P, (GAUSS, ZERO, ZERO), 1, 0, [], 1e-9)
        from mgt_spectral import GridError
        with pytest.raises(GridError):
            decay_curve(P, (GAUSS, ZERO, ZERO), 1, 0, [2.0, 1.0], 1e-9)


class TestIntegralLemmas:
    def test_plain_t0_unit(self):
        rep = integral_lemma_check(1, 0, 1.0, [0.0, 1.0, 10.0, 100.0])
        assert rep.series["plain"].ratios[0] == pytest.approx(1.0, rel=1e-9)
        assert rep.series["plain"].stable

    def test_all_ratios_bounded(self):
        tg = np.concatenate([[0.0], np.geomspace(0.01, 1e4, 20)])
        for dim, j in [(1, 0), (2, 0), (3, 0), (2, 1)]:
            rep = integral_lemma_check(dim, j, 1.0, tg)
            for name, s in rep.series.items():
                assert s.stable, name
                assert np.isfinite(s.max_ratio)

    def test_sine_global_sharp_limit(self):
        tg = np.geomspace(1.0, 1e4, 12)
        rep = integral_lemma_check(3, 0, 1.0, tg)
        s = rep.series["sine_global"]
        assert rep.sine_global_bound_constant == pytest.approx(math.sqrt(math.pi) / 2.0)
        assert rep.sine_global_sharp_limit == pytest.approx(math.sqrt(math.pi) / 4.0)
        # the ratio never exceeds the bound constant and approaches the sharp value
        assert s.max_ratio <= rep.sine_global_bound_constant
        assert s.ratios[-1] == pytest.approx(rep.sine_global_sharp_limit, rel=0.05)

    def test_sine_global_needs_dim_j(self):
        rep = integral_lemma_check(1, 0, 1.0, [1.0, 10.0])
        assert "sine_global" not in rep.series
        rep2 = integral_lemma_check(1, 2, 1.0, np.geomspace(1.0, 100.0, 6))
        assert "sine_global" in rep2.series

    def test_json_report(self):
        rep = integral_lemma_check(3, 0, 1.0, np.geomspace(1.0, 100.0, 6))
        payload = json.loads(report_to_json(rep))
        assert payload["dim"] == 3
        assert payload["series"]["plain"]["stable"]

    def test_validates_input(self):
        with pytest.raises(ValueError):
            integral_lemma_check(0, 0, 1.0, [1.0])
        with pytest.raises(ValueError):
            integral_lemma_check(1, 0, -1.0, [1.0])
        with pytest.raises(EmptyInput):
            integral_lemma_check(1, 0, 1.0, [])


class TestGaussTailClosedForm:
    """The closed-form tail bound against scipy's incomplete gamma and exp1."""

    @pytest.mark.parametrize("m", range(-1, 13))
    @pytest.mark.parametrize("s", [0.3, 1.0, 2.5])
    def test_matches_scipy_reference(self, m, s):
        from scipy import special

        from mgt_spectral.decay import _gauss_tail

        for z in np.concatenate([[0.0], np.geomspace(1e-8, 700.0, 120)]):
            K = math.sqrt(z) / s
            z_eff = (s * (K if K > 0.0 else 1e-12)) ** 2  # K = 0 is floored at 1e-12
            if m == -1:
                ref = 0.5 * float(special.exp1(z_eff))
            else:
                a = 0.5 * (m + 1)
                ref = 0.5 * s ** (-(m + 1.0)) * float(special.gamma(a) * special.gammaincc(a, z_eff))
            if ref <= 1e-290:
                continue
            got = _gauss_tail(m, s, K)
            # a certified upper bound: never more than rounding below the reference
            assert abs(got - ref) <= 1e-12 * ref, (m, s, z, got, ref)


class TestBoundVerdict:
    def _curve(self, values, exponent=-0.5):
        from mgt_spectral import DecayCurve

        ts = np.geomspace(1e2, 1e4, 8)
        return DecayCurve(times=ts, values=np.asarray(values(ts)), dim=1, j=0,
                          fitted_slope=None, bound_exponent=exponent,
                          bound_constant_measured=0.0, tau=P.tau, beta=P.beta,
                          quad_tol=1e-10)

    def test_exact_power_law_is_within_with_its_constant(self):
        from mgt_spectral import bound_verdict

        curve = self._curve(lambda ts: 3.0 * (1.0 + ts) ** -0.5)
        within, c_early = bound_verdict(curve, -0.5, 0.0)
        assert within and c_early == pytest.approx(3.0, rel=1e-14)

    def test_late_rise_beyond_the_slack_is_a_violation(self):
        from mgt_spectral import bound_verdict

        curve = self._curve(lambda ts: (1.0 + ts) ** -0.5 * np.where(ts > 5e3, 1.02, 1.0))
        assert not bound_verdict(curve, -0.5, 0.0)[0]
        # the absolute slack absorbs it, and so does a slower bound exponent
        assert bound_verdict(curve, -0.5, 1e-3)[0]
        assert bound_verdict(curve, -0.4, 0.0)[0]
