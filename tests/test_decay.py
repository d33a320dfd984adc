import json
import math
import re
import warnings

import numpy as np
import pytest

from mgt_spectral import (DataClass, DegenerateFit, FrequencyProfile, InvalidInput,
                          QuadratureFailure, decay_curve, decay_curve_rows, decay_curve_summary,
                          fit_decay_slope, infer_data_class, integral_lemma_check,
                          region_contributions, region_rates, region_split, sobolev_norm_sq,
                          v_norm_sq, validate)

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

    def test_accepts_numpy_integer_orders(self):
        data = (ZERO, ZERO, GAUSS)
        assert (sobolev_norm_sq(P, data, np.int64(3), np.int64(0), 1.0, 1e-10)
                == sobolev_norm_sq(P, data, 3, 0, 1.0, 1e-10))


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
            fit_decay_slope([1.0, 2.0, 3.0, 4.0], [1.0, -1.0, 1.0, 1.0])

    def test_matches_least_squares_polyfit(self):
        # np.polyfit (LAPACK dgelsd) is the reference for the closed form
        rng = np.random.default_rng(2016)
        for _ in range(200):
            n = int(rng.integers(3, 14))
            t = np.sort(10.0 ** rng.uniform(-2.0, 4.0, n))
            v = (10.0 ** rng.uniform(-6.0, 2.0) * (1.0 + t) ** rng.uniform(-2.0, 1.0)
                 * np.exp(0.1 * rng.standard_normal(n)))
            ref = np.polyfit(np.log1p(t), np.log(v), 1)[0]
            assert abs(fit_decay_slope(t, v) - ref) <= 1e-13, (t, v)

    @pytest.mark.parametrize("times,values", [
        ([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [1.0, 2.0, math.nan, 1.0, 2.0, 1.0]),
        ([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [1.0, 2.0, math.inf, 1.0, 2.0, 1.0]),
        ([1.0, 2.0, math.nan, 4.0, 5.0, 6.0], [1.0, 2.0, 3.0, 1.0, 2.0, 1.0]),
        ([1.0, 2.0, math.inf, 4.0, 5.0, 6.0], [1.0, 2.0, 3.0, 1.0, 2.0, 1.0]),
        ([-1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [1.0, 2.0, 3.0, 1.0, 2.0, 1.0]),
        ([-2.0, 2.0, 3.0, 4.0, 5.0, 6.0], [1.0, 2.0, 3.0, 1.0, 2.0, 1.0]),
        ([3.0] * 6, [1.0, 2.0, 3.0, 1.0, 2.0, 1.0]),
        ([1.0, 2.0, 3.0], [1.0, 2.0]),
        ([[1.0, 2.0, 3.0]], [1.0, 2.0, 3.0]),
    ])
    def test_no_slope_is_a_degenerate_fit(self, times, values, capfd):
        # not a silent number, a NaN, an untyped LinAlgError, a warning or LAPACK stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateFit):
                fit_decay_slope(times, values)
        assert capfd.readouterr().err == ""


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



class TestQuadratureDiagnostics:
    """Every curve carries, per time, how its value was obtained."""

    @pytest.mark.parametrize("tau,beta", [(0.1, 1.0), (0.965, 1.0), (0.05, 1.2),
                                          (0.3, 1.0), ((1.0 + 1e-9) / 9.0, 1.0)])
    @pytest.mark.parametrize("data,dim,j,v_norm", [((ZERO, ZERO, GAUSS), 3, 0, False),
                                                   ((GAUSS, MF, MF), 1, 0, False),
                                                   ((GAUSS, GAUSS, GAUSS), 3, 1, True),
                                                   # the k^-1 and k^-2 orders of the tail bound
                                                   ((ZERO, GAUSS, ZERO), 2, 0, False),
                                                   ((ZERO, GAUSS, ZERO), 1, 0, False),
                                                   ((GAUSS, MF, MF), 4, 0, True)])
    def test_error_estimate_plus_tail_bound_within_quad_tol(self, tau, beta, data, dim, j,
                                                             v_norm):
        ts = [0.0, 0.5, 10.0, 1e2, 1e3, 1e4]
        curve = decay_curve(validate(tau, beta), data, dim, j, ts, 1e-10, v_norm=v_norm)
        for name in ("quad_nodes", "quad_error", "k_max", "tail_bound"):
            assert getattr(curve, name).shape == curve.times.shape, name
        assert np.all(curve.quad_error + curve.tail_bound <= curve.quad_tol)
        assert np.all(curve.quad_error >= 0.0) and np.all(curve.tail_bound >= 0.0)
        assert np.all(curve.quad_nodes > 0) and np.all(curve.k_max > 0.0)

    @pytest.mark.parametrize("tau", [1e-8, 1e-6])
    def test_small_tau_certified_in_few_nodes(self, tau):
        # near k = 0 the untrusted panels are bisected by the phase-turn rule, so
        # no partition grows with t sqrt(beta / tau)
        curve = decay_curve(validate(tau, 1.0), (ZERO, ZERO, GAUSS), 3, 0,
                            [0.5, 10.0, 1e2, 1e3, 1e4], 1e-10)
        assert np.all(curve.quad_error + curve.tail_bound <= curve.quad_tol)
        assert np.all(curve.quad_nodes <= 2000), curve.quad_nodes

    def test_summary_reports_them_per_time(self):
        curve = decay_curve(P, (ZERO, ZERO, GAUSS), 3, 0, [1.0, 10.0, 100.0], 1e-10)
        payload = json.loads(json.dumps(decay_curve_summary(curve)))
        assert payload["quad_nodes"] == curve.quad_nodes.tolist()
        for name in ("quad_error", "k_max", "tail_bound"):
            assert payload[name] == getattr(curve, name).tolist() and len(payload[name]) == 3

    def test_zero_data_costs_nothing(self):
        curve = decay_curve(P, (ZERO, ZERO, ZERO), 3, 0, [1.0, 10.0], 1e-10)
        assert curve.quad_nodes.tolist() == [0, 0] and curve.values.tolist() == [0.0, 0.0]

    def test_one_norm_problem_per_curve(self, monkeypatch):
        # the Lyapunov weights of the tail bound are built once for all the times,
        # and not at all for zero data
        from mgt_spectral import lyapunov

        calls, weights = [], lyapunov.default_weights
        monkeypatch.setattr(lyapunov, "default_weights", lambda p: calls.append(p) or weights(p))
        curve = decay_curve(P, (ZERO, ZERO, GAUSS), 3, 0, [0.0, 1.0, 10.0, 100.0], 1e-10)
        assert calls == [P] and np.all(curve.tail_bound > 0.0)
        decay_curve(P, (ZERO, ZERO, ZERO), 3, 0, [1.0, 10.0], 1e-10)
        region_contributions(P, (ZERO, ZERO, GAUSS), 3, 0, 10.0)
        assert calls == [P, P]



@pytest.mark.parametrize("tau,beta", [(0.05, 1.0), ((1.0 - 1e-13) / 9.0, 1.0),
                                      ((1.0 + 1e-13) / 9.0, 1.0), (0.3, 1.0), (0.965, 1.0)])
@pytest.mark.parametrize("t", [3.5, 30.0, 1e3])
def test_split_path_matches_the_capped_whole_integrand(tau, beta, t):
    # where r t >= pi the norm is an envelope plus harmonics; the whole
    # integrand over the same cut on panels an eighth of a period of the phase
    # t sqrt(beta / tau) k wide is the reference, across the double roots of the
    # sub-critical band and the triple root (at t = 3.5, 2 pi / t = 1.8 is below
    # sqrt(m1) = 1.9 at tau 0.05)
    from mgt_spectral import adaptive_quadrature, decay, solve_modes_on_grid

    p, data, tol = validate(tau, beta), (GAUSS, ZERO, GAUSS), 1e-10
    quad, k_max, tail = decay._norm_integral(p, data, 1, 0, t, tol, False)
    cap = math.pi / (4.0 * t * math.sqrt(beta / tau))
    whole = adaptive_quadrature(
        lambda k: solve_modes_on_grid(p, k, GAUSS(k), ZERO(k), GAUSS(k), t)[0][0] ** 2,
        0.0, k_max, 0.5 * tol, initial_edges=np.linspace(0.0, k_max, math.ceil(k_max / cap) + 1))
    assert abs(quad.value - whole.value) <= quad.error + whole.error
    assert quad.n_nodes < whole.n_nodes


@pytest.mark.parametrize("t", [0.0, 1.0, 1e3])
@pytest.mark.parametrize("v_norm", [False, True])
def test_one_root_solve_per_integrand_call_and_every_node_through_the_grid_kernel(
        monkeypatch, t, v_norm):
    from mgt_spectral import decay, mode_solver

    roots, grid = mode_solver._cubic_roots_batch, decay.solve_modes_on_grid
    split = decay._split_integrand
    sizes = {"roots": [], "grid": [], "integrand": []}

    def spy_roots(tau, beta, k2):
        sizes["roots"].append(k2.size)
        return roots(tau, beta, k2)

    def spy_grid(p, ks, *rest):
        sizes["grid"].append(len(ks))
        return grid(p, ks, *rest)

    def spy_split(*args):
        f = split(*args)

        def integrand(k):
            sizes["integrand"].append(k.size)
            return f(k)

        return integrand

    monkeypatch.setattr(mode_solver, "_cubic_roots_batch", spy_roots)
    monkeypatch.setattr(decay, "solve_modes_on_grid", spy_grid)
    monkeypatch.setattr(decay, "_split_integrand", spy_split)
    quad, _, _ = decay._norm_integral(validate(0.965, 1.0), (GAUSS, ZERO, GAUSS), 3, 0, t,
                                      1e-10, v_norm)
    assert sizes["roots"] == sizes["grid"] == sizes["integrand"]
    assert sum(sizes["grid"]) == quad.n_nodes > 0

@pytest.mark.parametrize("tau", [0.965, 0.1])
def test_large_t_norm_node_count_does_not_grow_with_t_kmax(tau):
    # the capped quadrature needed 719,790 nodes at tau 0.965 and 51,690 at 0.1
    curve = decay_curve(validate(tau, 1.0), (ZERO, ZERO, GAUSS), 3, 0, [1e4], 1e-10)
    assert curve.values[0] ** 2 == pytest.approx(
        sobolev_norm_sq(validate(tau, 1.0), (ZERO, ZERO, GAUSS), 3, 0, 1e4, 1e-10), rel=1e-14)
    assert curve.quad_nodes[0] <= 5000

class TestIntegralLemmas:
    def test_plain_t0_unit(self):
        rep = integral_lemma_check(1, 0, 1.0, [0.0, 1.0, 10.0, 100.0])
        assert rep.series["plain"].ratios[0] == pytest.approx(1.0, rel=1e-9)

    def test_all_ratios_bounded(self):
        tg = np.concatenate([[0.0], np.geomspace(0.01, 1e4, 20)])
        for dim, j in [(1, 0), (2, 0), (3, 0), (2, 1)]:
            rep = integral_lemma_check(dim, j, 1.0, tg)
            for name, s in rep.series.items():
                assert np.isfinite(s.max_ratio), name
                assert s.check.passed, name

    @pytest.mark.parametrize("dim, j", [(1, 0), (2, 0), (3, 0), (2, 1), (4, 1), (3, 2)])
    @pytest.mark.parametrize("c", [0.3, 1.0])
    def test_plain_matches_incomplete_gamma(self, dim, j, c):
        # int_0^1 r^(dim+j-1) e^(-c r^2 t) dr = gamma(a, ct) / (2 (ct)^a), a = (dim+j)/2,
        # to the lemma's own tolerance 1e-6 (1+t)^-a
        from scipy import special

        a = 0.5 * (dim + j)
        times = np.array([0.0, 0.01, 1.0, 10.0, 100.0, 1e3, 1e4])  # too short to fit growth
        rep = integral_lemma_check(dim, j, c, times)
        shape = (1.0 + times) ** -a
        ct = c * times[1:]
        exact = np.concatenate([[0.5 / a], special.gammainc(a, ct) * special.gamma(a)
                                / (2.0 * ct**a)])
        tol = np.maximum(1e-15, 1e-6 * shape)
        assert np.all(np.abs(rep.series["plain"].ratios * shape - exact) <= tol)

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

    @pytest.mark.parametrize("c", [-1.0, 0.0, math.inf, math.nan, None, True])
    def test_rejects_a_c_that_is_not_finite_and_positive(self, c):
        with pytest.raises(InvalidInput, match=f"^need a finite c > 0, got {c}$"):
            integral_lemma_check(1, 0, c, [1.0])

    def test_quadrature_diagnostics_on_the_verify_grid(self):
        # every series carries per-time nodes, error estimates and error targets;
        # the capped quadrature spent 3,126,657 nodes on these five combos
        tg = np.concatenate([[0.0], np.geomspace(1e-2, 1e4, 12)])
        total = 0
        for dim, j in [(1, 0), (2, 0), (3, 0), (1, 2), (2, 1)]:
            for name, s in integral_lemma_check(dim, j, 1.0, tg).series.items():
                assert s.quad_nodes.shape == s.quad_error.shape == s.quad_tol.shape == s.times.shape
                assert np.all(s.quad_error <= s.quad_tol), name
                assert np.all(s.quad_nodes > 0), name
                assert s.check.passed, name
                total += int(s.quad_nodes.sum())
        assert total <= 100_000

    def test_sine_global_needs_a_positive_time(self):
        rep = integral_lemma_check(3, 0, 1.0, [0.0])
        assert set(rep.series) == {"plain", "cosine", "sine_low"}
        assert rep.sine_global_bound_constant == pytest.approx(math.sqrt(math.pi) / 2.0)


class TestNoLeastSquaresSolver:
    """The norm path and the lemma checks fit slopes in closed form."""

    @pytest.fixture
    def refuse_lstsq(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a LAPACK least-squares solver was called")

        for module, name in ((np, "polyfit"), (np.linalg, "lstsq"), (np.linalg, "svd")):
            monkeypatch.setattr(module, name, refuse)

    def test_decay_curve(self, refuse_lstsq, monkeypatch):
        from mgt_spectral import mode_solver

        propagate, series_rows = mode_solver._propagate, []

        def spy(nodes, y0, t, w1, w2):
            _, _, _, lam, alpha, q = nodes
            series_rows.append(int(np.sum(np.abs((lam - alpha) ** 2 - q) * t * t < 1.0)))
            return propagate(nodes, y0, t, w1, w2)

        monkeypatch.setattr(mode_solver, "_propagate", spy)
        ts = np.array([0.05, 1.0, 1e2, 1e3, 1e4, 3e4])
        curve = decay_curve(P, (ZERO, ZERO, GAUSS), 3, 0, ts, 1e-10)
        assert curve.fitted_slope == pytest.approx(-0.25, abs=0.03)
        assert sum(series_rows) > 0  # the centred series of _propagate ran (t = 0.05)
        assert np.all(curve.k_max[2:] > 2.0 * math.pi / ts[2:])  # and so did the split pass

    @pytest.mark.parametrize("dim,j", [(1, 0), (2, 0), (3, 0), (1, 2), (2, 1)])
    def test_integral_lemmas_on_the_verify_grid(self, refuse_lstsq, monkeypatch, dim, j):
        from mgt_spectral import decay

        quadratures, runs = decay._lemma_quadratures, []

        def spy(*args):
            runs.append(quadratures(*args))
            return runs[-1]

        monkeypatch.setattr(decay, "_lemma_quadratures", spy)
        tg = np.concatenate([[0.0], np.geomspace(1e-2, 1e4, 12)])
        rep = integral_lemma_check(dim, j, 1.0, tg)
        for name, s in rep.series.items():
            values = np.array([run[name][0].value for run in runs if name in run])
            assert s.bound.shape == s.times.shape == values.shape, name
            assert np.all(values <= s.bound + s.quad_tol), name


class TestGaussTailBound:
    """The tail bound against the exact tail Gamma(a, z) / (2 s^(m+1)), a = (m+1)/2, by
    mpmath: never below it, and within the factor _gauss_tail's docstring proves."""

    Z_GRID = np.concatenate([[0.0], np.geomspace(1e-8, 700.0, 120)])

    @staticmethod
    def _rows(m, s):
        """(bound, exact tail, proven upper bound) at each z of the grid above 1e-290."""
        mp = pytest.importorskip("mpmath")
        from mgt_spectral.decay import _gauss_tail

        a, m_plus = 0.5 * (m + 1), max(m, 0)
        for z in TestGaussTailBound.Z_GRID:
            K = max(math.sqrt(z) / s, 1e-12)  # the bound takes K > 0: z = 0 at K = 1e-12
            z = (s * K) ** 2
            exact = float(0.5 * s ** (-(m + 1.0)) * mp.gammainc(a, z))
            if exact <= 1e-290:
                continue
            upper = math.inf
            if 2.0 * z > m_plus:  # the power (1 + u/z)^(a-1) is concave at m = 2 only
                jensen = 1.0 if m == 2 else (1.0 + 1.0 / z) ** (1.0 - a)
                upper = 2.0 * z / (2.0 * z - m_plus) * jensen
            if m >= 0:  # the whole moment
                upper = min(upper, float(mp.gamma(a) / mp.gammainc(a, z)))
            yield _gauss_tail(m, s, K), exact, upper * exact

    @staticmethod
    def _safe(bound, exact):
        # a certified upper bound: never more than rounding below the exact tail
        return bound >= exact * (1.0 - 1e-12)

    @pytest.mark.parametrize("m", range(-3, 13))
    @pytest.mark.parametrize("s", [0.3, 1.0, 2.5])
    def test_bounds_the_exact_tail_within_the_proven_factor(self, m, s):
        for bound, exact, upper in self._rows(m, s):
            assert self._safe(bound, exact), (m, s, bound, exact)
            assert bound <= upper * (1.0 + 1e-12), (m, s, bound, upper)

    def test_a_bound_a_millionth_low_fails_the_safety_check(self):
        # negative control: the safety check sees a bound 1e-6 below the exact tail
        rows = [row for m in range(-3, 13) for s in (0.3, 1.0, 2.5) for row in self._rows(m, s)]
        assert not all(self._safe(bound * (1.0 - 1e-6), exact) for bound, exact, _ in rows)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestFloatRange:
    """Inputs whose tail bounds or error targets leave the float range give an
    exact limit or a typed failure, never OverflowError."""

    def test_tail_bound_limits(self):
        from mgt_spectral.decay import _gauss_tail, _kmax_certified

        assert _gauss_tail(0, 1e200, 1.0) == 0.0       # (s K)^2 overflows: e^-inf = 0
        assert _gauss_tail(-2, 1.0, 1e200) == 0.0
        assert _gauss_tail(6, 1e-150, 1.0) == math.inf  # s^-7 overflows
        assert _gauss_tail(-1, 1e-200, 1.0) == math.inf  # (s K)^2 underflows: no bound at z = 0
        with pytest.raises(QuadratureFailure):
            _kmax_certified(lambda K: _gauss_tail(6, 1e-150, K), 1e-16)

    def test_data_beyond_the_float_range_has_norm_zero(self, capsys):
        from mgt_spectral.cli import main

        data = (FrequencyProfile.gaussian(1e200), ZERO, ZERO)
        curve = decay_curve(P, data, 3, 0, [100.0, 1000.0, 10000.0], 1e-10)
        assert np.all(curve.values == 0.0) and np.all(curve.tail_bound == 0.0)
        code = main(["decay", "--tau", "0.1", "--beta", "1", "--t-count", "3", "--format", "json",
                     "--data", "u0:gaussian:1e200:1,u1:zero,u2:zero"])
        out = capsys.readouterr()
        assert code == 0 and out.err == ""
        assert [row["norm"] for row in json.loads(out.out)["rows"]] == [0.0, 0.0, 0.0]

    def test_moment_free_data_beyond_the_float_range_has_norm_zero(self, capsys):
        # (amplitude scale)^2 = 1e400 in the tail envelope: it made the tail NaN and
        # the truncation point uncertifiable (exit 4)
        from mgt_spectral.cli import main

        data = (FrequencyProfile.moment_free(1e200), ZERO, ZERO)
        curve = decay_curve(P, data, 3, 0, [100.0, 10000.0], 1e-10)
        assert np.all(curve.values == 0.0) and np.all(curve.tail_bound == 0.0)
        code = main(["decay", "--tau", "0.1", "--beta", "1", "--t-count", "2", "--format", "json",
                     "--data", "u0:mfgaussian:1e200:1,u1:zero,u2:zero"])
        out = capsys.readouterr()
        assert code == 0 and out.err == ""
        assert [row["norm"] for row in json.loads(out.out)["rows"]] == [0.0, 0.0]

    @pytest.mark.parametrize("dim,j,t", [(1, 0, 1e200), (1, 0, 1e300), (5, 4, 1e-300)])
    def test_lemma_error_target_out_of_range_is_typed(self, dim, j, t):
        with pytest.raises(QuadratureFailure, match="out of float range"):
            integral_lemma_check(dim, j, 1.0, [t])

    @pytest.mark.parametrize("dim, c, grid, at", [
        (400, 1.0, [0.0, 1.0, 10.0], "t = 1"),
        (60, 1e-10, [0.0, 1.0, 10.0], "t = 1"),
        (400, 1.0, [0.0], "c = 1, the sine_global constant"),
        (60, 1e-10, [0.0], "c = 1e-10, the sine_global constant"),
    ])
    def test_lemma_bound_out_of_range_is_typed(self, dim, c, grid, at):
        # Gamma(b) / (2 z^b) past the float range: a bare OverflowError, or at
        # (60, 1e-10, [0]) an infinite sine_global constant, which bounds nothing
        with pytest.raises(QuadratureFailure,
                           match=f"^lemma bound out of float range at {re.escape(at)}$"):
            integral_lemma_check(dim, 0, c, grid)

    def test_lemma_kernel_whose_c_t_underflows_is_typed(self):
        # at c t = 0 the sine_global kernel has no Gaussian decay and no certified cut
        # (a bare ZeroDivisionError before)
        with pytest.raises(QuadratureFailure,
                           match="^could not certify a finite truncation point$"):
            integral_lemma_check(3, 0, 1e-170, [1e-170])

    def test_lemma_weight_whose_power_overflows_is_typed(self):
        # r^399 overflowed where r^399 e^(-10 r^2) peaks near 1e172: a RuntimeWarning,
        # then "not finite"; the product is finite, and its 1e-16 target lies below
        # the rounding of a value that large
        with pytest.raises(QuadratureFailure, match="below the rounding floor"):
            integral_lemma_check(400, 0, 1.0, [10.0])

    def test_lemma_weight_whose_exponent_overflows_is_its_limit(self):
        # c r^2 t overflowed with a RuntimeWarning; e^-inf = 0 is the exact weight there
        rep = integral_lemma_check(1, 0, 1e300, [1e10])
        assert set(rep.series) == {"plain", "cosine", "sine_low"}
        assert all(s.check.passed for s in rep.series.values())


class TestBoundVerdict:
    def _curve(self, values, exponent=-0.5):
        from mgt_spectral import DecayCurve

        ts = np.geomspace(1e2, 1e4, 8)
        return DecayCurve(times=ts, values=np.asarray(values(ts)), dim=1, j=0,
                          fitted_slope=None, bound_exponent=exponent,
                          bound_constant_measured=0.0, tau=P.tau, beta=P.beta,
                          quad_tol=1e-10, quad_nodes=np.zeros(ts.size, dtype=int),
                          quad_error=np.zeros(ts.size), k_max=np.zeros(ts.size),
                          tail_bound=np.zeros(ts.size))

    def test_exact_power_law_is_within_with_its_constant(self):
        from mgt_spectral import bound_verdict

        curve = self._curve(lambda ts: 3.0 * (1.0 + ts) ** -0.5)
        check, c_early = bound_verdict(curve, -0.5, 0.0)
        assert check.passed and c_early == pytest.approx(3.0, rel=1e-14)

    def test_late_rise_beyond_the_slack_is_a_violation(self):
        from mgt_spectral import bound_verdict

        curve = self._curve(lambda ts: (1.0 + ts) ** -0.5 * np.where(ts > 5e3, 1.02, 1.0))
        assert not bound_verdict(curve, -0.5, 0.0)[0].passed
        # the absolute slack absorbs it, and so does a slower bound exponent
        assert bound_verdict(curve, -0.5, 1e-3)[0].passed
        assert bound_verdict(curve, -0.4, 0.0)[0].passed


class TestDataEnvelope:
    """The tail envelope of _envelope_monomials against the mode energy E(k, 0)
    of the data, from lyapunov.functionals."""

    P03 = validate(0.3, 1.0)
    KS = np.concatenate([[0.0], np.geomspace(1e-3, 8.0, 200)])

    @staticmethod
    def _ratio(p, data, ks, shrink=1.0):
        from mgt_spectral import ModeState, default_weights, functionals
        from mgt_spectral.decay import _envelope_monomials

        mono, s_min, unit = _envelope_monomials(p, data)
        envelope = unit**2 * sum(c * ks**pw for c, pw in mono) * np.exp(-(s_min * ks) ** 2)
        state = ModeState(*(prof(ks) for prof in data), k=ks)
        energy = functionals(p, state, default_weights(p)).energy
        return shrink * envelope / energy

    @pytest.mark.parametrize("kinds", ["ggg", "gmm", "mgm", "mmg"])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_exact_for_data_of_one_scale_and_sign(self, kinds, sign):
        make = {"g": FrequencyProfile.gaussian, "m": FrequencyProfile.moment_free}
        data = tuple(make[kd](1.3, sign * amp) for kd, amp in zip(kinds, (0.7, 2.0, 1.1)))
        ks = self.KS[1:] if kinds[1:] == "mm" else self.KS  # E(0, 0) = 0 there
        ratio = self._ratio(self.P03, data, ks)
        assert np.abs(ratio - 1.0).max() <= 1e-13
        # negative control: an envelope 1e-6 too small falls below the energy
        assert self._ratio(self.P03, data, ks, shrink=1.0 - 1e-6).min() < 1.0

    def test_certified_for_random_signs_scales_and_kinds(self):
        rng = np.random.default_rng(2604)
        for _ in range(60):
            beta = rng.uniform(0.5, 2.0)
            p = validate(rng.uniform(0.01, 0.99) * beta, beta)
            data = tuple(FrequencyProfile(rng.integers(2), rng.uniform(0.3, 3.0),
                                          rng.choice([-1.0, 1.0, 0.0]) * rng.uniform(0.1, 3.0))
                         for _ in range(3))
            if all(prof.amplitude == 0.0 for prof in data):
                continue
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = self._ratio(p, data, self.KS)
            assert np.all(np.isnan(ratio) | (ratio >= 1.0 - 1e-13)), data

    @pytest.mark.parametrize("scale", [0.3, 1.0, 2.7])
    @pytest.mark.parametrize("amplitude", [1.0, -2.5, 0.0, 1e-200])
    def test_profile_values_are_the_two_formulas_bit_for_bit(self, scale, amplitude):
        k = np.concatenate([[0.0], np.geomspace(1e-6, 60.0, 500)])
        s = scale * k
        gauss = FrequencyProfile.gaussian(scale, amplitude)
        moment_free = FrequencyProfile.moment_free(scale, amplitude)
        assert gauss.order == 0 and moment_free.order == 1
        assert gauss(k).tobytes() == (amplitude * np.exp(-0.5 * s * s)).tobytes()
        assert moment_free(k).tobytes() == (amplitude * s * np.exp(-0.5 * s * s)).tobytes()
        assert FrequencyProfile.zero()(k).tobytes() == np.zeros_like(k).tobytes()


def _damped_wave(k: float, t: float, beta: float = 1.0) -> float:
    """u(t) of the strongly damped wave u'' + beta k^2 u' + k^2 u = 0, the tau -> 0
    limit of each mode, with u(0) = 1 and u'(0) = 0, in closed form: the roots
    a +- d, a = -beta k^2 / 2, d^2 = a^2 - k^2, written without cancellation."""
    a = -0.5 * beta * k * k
    disc = 0.25 * beta * beta * k * k - 1.0
    if disc >= 0.0:  # real roots: e^{(a + d) t}((1 + e^{-2dt})/2 - a t (1 - e^{-2dt})/(2dt))
        d = k * math.sqrt(disc)
        y = 2.0 * d * t
        frac = -math.expm1(-y) / y if y > 0.0 else 1.0
        return math.exp((a + d) * t) * (0.5 * (1.0 + math.exp(-y)) - a * t * frac)
    x = k * math.sqrt(-disc) * t  # a complex pair a +- i w: e^{at}(cos wt - a t sin(wt)/(wt))
    return math.exp(a * t) * (math.cos(x) - a * t * (math.sin(x) / x if x > 0.0 else 1.0))


class TestVanishingRelaxationLimit:
    """As tau -> 0 the norm tends to the strongly damped wave's, at first order in
    tau: (J(tau) - J(0)) / tau settles, with J(0) from _damped_wave."""

    @pytest.mark.parametrize("t", [1.0, 10.0])
    def test_first_order_in_tau(self, t):
        from scipy.integrate import quad

        j_zero = quad(lambda k: math.exp(-k * k) * _damped_wave(k, t) ** 2, 0.0, 12.0,
                      epsabs=1e-15, epsrel=1e-13, limit=200, points=[2.0])[0]
        data = (GAUSS, ZERO, ZERO)
        slopes = [(sobolev_norm_sq(validate(tau, 1.0), data, 1, 0, t, 1e-13) - j_zero) / tau
                  for tau in (1e-6, 1e-8)]
        assert slopes[0] == pytest.approx(slopes[1], rel=1e-3)
        assert 0.0 < slopes[1] < 1.0


class TestLargeTimes:
    """Past t ~ 1.3e154, t^2 times an O(1) quantity overflows: the mode and the
    norms of u0 data are (nearly) 0 there, and come with no warning."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("t", [1e160, 1e300])
    def test_mode_and_norms_without_a_warning(self, t):
        from mgt_spectral import ModeState, solve_mode

        st = solve_mode(P, ModeState(1.0, 1.0, 1.0, k=1.0), t)
        assert st.as_array().tolist() == [0.0, 0.0, 0.0]
        data = (GAUSS, ZERO, ZERO)
        for value in (sobolev_norm_sq(P, data, 3, 0, t, 1e-10),
                      v_norm_sq(P, data, 1, 0, t, 1e-10),
                      sobolev_norm_sq(validate(0.965, 1.0), data, 2, 1, t, 1e-10)):
            assert 0.0 <= value <= 1e-200
