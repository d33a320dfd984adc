import math

import numpy as np
import pytest

from mgt_spectral import (EmptyInput, InvalidFrequency, ModeState, decay_margin_exact, default_weights,
                          energy_dissipation_residual, functionals, gronwall_margin,
                          mode_coefficients, evaluate_mode, pointwise_bound_constants,
                          rho, solve_mode, v_vector, validate)
from mgt_spectral.lyapunov import _DEFAULT_K_GRID, dissipation_scale

P = validate(0.1, 1.0)


def random_state(rng, k):
    return ModeState(*(rng.standard_normal(3) + 1j * rng.standard_normal(3)), k=float(k))


class TestDefaultWeights:
    def test_reference_values(self):
        w = default_weights(P)
        assert w.eps0 == 0.5 and w.eps1 == 0.5
        assert w.gamma1 == 4.0
        assert w.eps2 == pytest.approx(1.0 / 16.0)
        # gamma0 = 2 (C(eps0) + gamma1 C(eps1, eps2)) / (beta - tau)
        #        = 2 (0.405 + 4 * 0.54) / 0.9 = 5.7
        assert w.gamma0 == pytest.approx(5.7, rel=1e-12)

    def test_selection_chain_inequalities(self):
        for p in (P, validate(0.5, 1.0), validate(0.05, 1.7)):
            w = default_weights(p)
            assert w.eps0 < 1.0 and w.eps1 < 1.0
            assert w.gamma1 > 1.0 / (1.0 - w.eps1)
            assert w.eps2 < (1.0 - w.eps0) / w.gamma1
            c0 = (p.beta - p.tau) ** 2 / (4.0 * w.eps0)
            c12 = p.tau**2 / (4.0 * w.eps2) + 1.0 / (4.0 * w.eps1)
            assert w.gamma0 > (c0 + w.gamma1 * c12) / (p.beta - p.tau)
            assert 0.0 < w.equiv_lo <= w.equiv_hi
            assert w.gamma5 > 0.0
            assert 0.0 < w.v_lo <= w.v_hi

    def test_all_positive_supercritical(self):
        w = default_weights(validate(0.5, 1.0))
        for field in ("gamma0", "gamma1", "eps0", "eps1", "eps2", "gamma5",
                      "equiv_lo", "equiv_hi"):
            assert getattr(w, field) > 0.0


class TestFunctionals:
    def test_zero_state(self):
        w = default_weights(P)
        f = functionals(P, ModeState(0.0, 0.0, 0.0, 1.0), w)
        assert f.energy == 0.0 and f.f1 == 0.0 and f.f2 == 0.0 and f.lyap == 0.0

    def test_hand_values(self):
        # state (0, 1, 0) at k = 1: energy collects all three quadratic terms
        w = default_weights(P)
        f = functionals(P, ModeState(0.0, 1.0, 0.0, 1.0), w)
        assert f.energy == pytest.approx(0.5 * (1.0 + 0.09 + 0.01), rel=1e-12)
        assert f.f1 == pytest.approx(0.1, rel=1e-12)
        assert f.f2 == pytest.approx(-0.1, rel=1e-12)
        assert f.rho == pytest.approx(0.5)

    def test_trajectory_state_gives_arrays(self):
        w = default_weights(P)
        init = ModeState(0.3 + 0.1j, -0.7, 1.9j, 2.0)
        ts = np.linspace(0.0, 8.0, 17)
        f = functionals(P, solve_mode(P, 2.0, init, ts), w)
        for j, t in enumerate(ts):
            single = functionals(P, solve_mode(P, 2.0, init, float(t)), w)
            for name in ("energy", "f1", "f2", "lyap"):
                assert getattr(f, name)[j] == pytest.approx(getattr(single, name), rel=1e-14)
        assert f.rho == single.rho

    def test_rho_range(self):
        assert float(rho(0.0)) == 0.0
        assert float(rho(1.0)) == pytest.approx(0.5)
        assert 0.0 <= float(rho(1e6)) < 1.0

    def test_equivalence_sandwich(self):
        # sandwich on 10^4 random states across k in [0, 100]
        w = default_weights(P)
        rng = np.random.default_rng(17)
        ks = np.concatenate([[0.0], np.geomspace(1e-3, 100.0, 99)])
        for k in ks:
            for _ in range(100):
                st = random_state(rng, k)
                f = functionals(P, st, w)
                assert w.equiv_lo * f.energy <= f.lyap * (1 + 1e-12) + 1e-300
                assert f.lyap <= w.equiv_hi * f.energy * (1 + 1e-12) + 1e-300

    def test_v_norm_sandwich(self):
        w = default_weights(P)
        rng = np.random.default_rng(19)
        for k in np.geomspace(1e-2, 50.0, 20):
            for _ in range(10):
                st = random_state(rng, k)
                f = functionals(P, st, w)
                vsq = v_vector(P, st).norm_sq
                assert w.v_lo * f.energy <= vsq * (1 + 1e-12) + 1e-300
                assert vsq <= w.v_hi * f.energy * (1 + 1e-12) + 1e-300


class TestDissipationIdentity:
    def test_zero_data(self):
        assert energy_dissipation_residual(P, 1.0, ModeState(0.0, 0.0, 0.0, 1.0), 1.0) == 0.0

    def test_along_trajectories(self):
        init = ModeState(1.0, 1.0, 1.0, 1.0)
        for t in (0.0, 1.0, 5.0):
            res = energy_dissipation_residual(P, 1.0, init, t)
            scale = dissipation_scale(P, 1.0, init, t)
            assert res <= 1e-9 * scale

    def test_zero_frequency_energy_constant(self):
        # at k = 0 the energy is |v + tau w|^2 / 2 and the identity reads dE/dt = 0
        init = ModeState(0.7, -0.3, 0.4, 0.0)
        for t in (0.0, 2.0, 9.0):
            res = energy_dissipation_residual(P, 0.0, init, t)
            assert res <= 1e-12

    def test_all_patterns(self):
        rng = np.random.default_rng(23)
        p_crit = validate(1.0 / 9.0, 1.0)
        cases = [(P, 1.0), (P, 1.78), (P, math.sqrt(3.125)), (p_crit, math.sqrt(3.0)), (P, 0.0)]
        for p, k in cases:
            init = random_state(rng, k)
            for t in rng.uniform(0.0, 8.0, 10):
                res = energy_dissipation_residual(p, k, init, float(t))
                scale = dissipation_scale(p, k, init, float(t))
                assert res <= 1e-9 * scale


class TestDissipationOverTimes:
    """An array of times is one kernel call and gives what the scalar calls give."""

    def test_array_times_match_scalar_calls(self):
        rng = np.random.default_rng(31)
        for p, k in [(P, 1.0), (P, 1.78), (validate(0.5, 1.2), 7.0), (P, 0.0)]:
            init = random_state(rng, k)
            ts = rng.uniform(0.0, 10.0, 10)
            res = energy_dissipation_residual(p, k, init, ts)
            scale = dissipation_scale(p, k, init, ts)
            assert res.shape == scale.shape == ts.shape
            for t, r, s in zip(ts, res, scale):
                assert s == pytest.approx(dissipation_scale(p, k, init, float(t)), rel=1e-12)
                assert r <= 1e-9 * s

    def test_scalar_time_returns_float(self):
        init = ModeState(1.0, 1.0, 1.0, 1.0)
        assert type(energy_dissipation_residual(P, 1.0, init, 2.0)) is float
        assert type(dissipation_scale(P, 1.0, init, 2.0)) is float

    def test_rejects_negative_time_in_array(self):
        with pytest.raises(ValueError):
            energy_dissipation_residual(P, 1.0, ModeState(1.0, 0.0, 0.0, 1.0),
                                        np.array([1.0, -1.0]))


class TestGronwallMargin:
    def test_positive_margin(self):
        w = default_weights(P)
        rng = np.random.default_rng(29)
        samples = [random_state(rng, 1.0) for _ in range(4)]
        g5 = gronwall_margin(P, w, np.geomspace(0.05, 50.0, 10), samples)
        assert g5 > 0.0
        # the trajectory sweep can only be at least as optimistic as the
        # exact state-minimum margin
        assert g5 >= decay_margin_exact(P, w, np.geomspace(0.05, 50.0, 10)) - 1e-9

    def test_empty_inputs_rejected(self):
        w = default_weights(P)
        with pytest.raises(EmptyInput):
            gronwall_margin(P, w, [], [ModeState(1.0, 0.0, 0.0, 1.0)])
        with pytest.raises(EmptyInput):
            gronwall_margin(P, w, [1.0], [])

    def test_empty_time_grid_rejected(self):
        with pytest.raises(EmptyInput, match="times"):
            gronwall_margin(P, default_weights(P), [1.0], [ModeState(1.0, 0.0, 0.0, 1.0)],
                            t_grid=[])

    @pytest.mark.parametrize("t_grid", [[-30.0, -10.0, 0.0], [0.0, -1e-300, 1.0],
                                        [0.0, math.nan, 1.0], [0.0, math.inf]])
    def test_negative_or_non_finite_time_rejected(self, t_grid):
        # the same check as solve_mode: no backward trajectory is swept
        with pytest.raises(ValueError, match="gronwall_margin requires t >= 0"):
            gronwall_margin(P, default_weights(P), [1.0], [ModeState(1.0, 0.0, 0.0, 1.0)],
                            t_grid=t_grid)

    def test_monotone_weighted_decay(self):
        # t -> L(t) exp(gamma5 rho t) is nonincreasing along trajectories
        w = default_weights(P)
        rng = np.random.default_rng(37)
        for k in (0.3, 1.0, 4.0, 20.0):
            init = random_state(rng, k)
            coeffs = mode_coefficients(P, k, init)
            r = float(rho(k))
            prev = None
            for t in np.linspace(0.0, 15.0, 61):
                f = functionals(P, evaluate_mode(coeffs, float(t)), w)
                val = f.lyap * math.exp(w.gamma5 * r * float(t))
                if prev is not None:
                    assert val <= prev * (1.0 + 1e-8) + 1e-300
                prev = val

    def test_pointwise_bound_on_fresh_samples(self):
        w = default_weights(P)
        C, c = pointwise_bound_constants(P, w)
        assert C >= 1.0 and c > 0.0
        rng = np.random.default_rng(41)
        for k in np.geomspace(0.05, 80.0, 12):
            init = random_state(rng, k)
            v0 = v_vector(P, init).norm_sq
            for t in (1.0, 5.0, 20.0):
                st = solve_mode(P, float(k), init, t)
                vt = v_vector(P, st).norm_sq
                assert vt <= C * math.exp(-c * float(rho(k)) * t) * v0 * (1 + 1e-9)

    def test_near_conservative_margin_shrinks(self):
        # gamma5 -> 0 as beta - tau -> 0, but stays positive
        w_wide = default_weights(validate(0.1, 1.0))
        w_tight = default_weights(validate(0.9999, 1.0))
        assert 0.0 < w_tight.gamma5 < w_wide.gamma5
        assert w_tight.gamma5 < 1e-2


class TestDifferentialInequalities:
    def test_f1_f2_lemma_inequalities(self):
        # d/dt F1 + (1 - eps0) k^2 |u + tau v|^2 <= |v + tau w|^2 + C(eps0) k^2 |v|^2
        # d/dt F2 + (1 - eps1) |v + tau w|^2
        #        <= C(eps1, eps2)(1 + k^2)|v|^2 + eps2 k^2 |u + tau v|^2
        from mgt_spectral.lyapunov import _state_rates

        w = default_weights(P)
        c0 = (P.beta - P.tau) ** 2 / (4.0 * w.eps0)
        c12 = P.tau**2 / (4.0 * w.eps2) + 1.0 / (4.0 * w.eps1)
        # the F2 bound also carries the tau (beta - tau) k^2 |v|^2 identity term
        c12_full = c12 + P.tau * (P.beta - P.tau)
        rng = np.random.default_rng(43)
        for k in (0.2, 1.0, 3.0, 15.0):
            k2 = k * k
            init = random_state(rng, k)
            coeffs = mode_coefficients(P, k, init)
            for t in np.linspace(0.0, 6.0, 25):
                st = evaluate_mode(coeffs, float(t))
                u, v, ww = st.u_hat, st.v_hat, st.w_hat
                rates = _state_rates(P, st)
                A2 = abs(v + P.tau * ww) ** 2
                B2 = abs(u + P.tau * v) ** 2
                V2 = abs(v) ** 2
                slack = 1e-10 * (A2 + k2 * B2 + (1 + k2) * V2 + 1e-300)
                assert rates["dF1"] + (1 - w.eps0) * k2 * B2 <= A2 + c0 * k2 * V2 + slack
                assert (rates["dF2"] + (1 - w.eps1) * A2
                        <= c12_full * (1 + k2) * V2 + w.eps2 * k2 * B2 + slack)


def _scipy_weight_reference(p, w, ks):
    """(gamma5, equiv_lo, equiv_hi) from per-frequency scipy.linalg.eigh pencils."""
    import scipy.linalg

    a = np.array([0.0, 1.0, p.tau])
    b = np.array([1.0, p.tau, 0.0])
    ev = np.array([0.0, 1.0, 0.0])
    lo, hi, g5 = w.gamma0, w.gamma0, np.inf
    for k in ks:
        k2 = k * k
        r = k2 / (1.0 + k2)
        me = 0.5 * (np.outer(a, a) + p.tau * (p.beta - p.tau) * k2 * np.outer(ev, ev)
                    + k2 * np.outer(b, b))
        ml = (w.gamma0 * me + r * 0.5 * (np.outer(b, a) + np.outer(a, b))
              - w.gamma1 * r * p.tau * 0.5 * (np.outer(ev, a) + np.outer(a, ev)))
        ratios = scipy.linalg.eigh(ml, me, eigvals_only=True)
        lo, hi = min(lo, ratios[0]), max(hi, ratios[-1])
        phi = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                        [-k2 / p.tau, -p.beta * k2 / p.tau, -1.0 / p.tau]])
        dmat = -(phi.T @ ml + ml @ phi)
        g5 = min(g5, scipy.linalg.eigh(dmat, r * ml, eigvals_only=True)[0])
    return 0.999 * g5, 0.999 * lo, 1.001 * hi


class TestBatchedWeightsAgainstScipy:
    def params(self):
        rng = np.random.default_rng(2026)
        pts = [validate(r, 1.0) for r in ((1.0 - 1e-9) / 9.0, 0.9999, 1e-4)]
        for _ in range(12):
            beta = float(rng.uniform(0.2, 5.0))
            pts.append(validate(float(rng.uniform(0.01, 0.99)) * beta, beta))
        return pts

    def test_default_weights_match_per_point_eigh(self):
        for p in self.params():
            w = default_weights(p)
            ref = _scipy_weight_reference(p, w, _DEFAULT_K_GRID)
            got = (w.gamma5, w.equiv_lo, w.equiv_hi)
            for name, g, r in zip(("gamma5", "equiv_lo", "equiv_hi"), got, ref):
                assert abs(g - r) <= 1e-10 * abs(r), (p, name, g, r)

    def test_decay_margin_exact_matches_per_point_eigh(self):
        ks = np.geomspace(0.05, 50.0, 10)
        for p in self.params():
            w = default_weights(p)
            ref = _scipy_weight_reference(p, w, ks)[0] / 0.999
            got = decay_margin_exact(p, w, ks)
            assert abs(got - ref) <= 1e-10 * abs(ref), (p, got, ref)


class TestEmptyPositiveGrid:
    def test_weights_and_margin_reject_a_grid_without_positive_frequency(self):
        with pytest.raises(EmptyInput):
            default_weights(P, k_grid=[0.0])
        with pytest.raises(EmptyInput):
            decay_margin_exact(P, default_weights(P), k_grid=[0.0])


class TestInvalidFrequencies:
    """A negative or non-finite frequency is rejected before any arithmetic; k = 0 is skipped."""

    @pytest.mark.parametrize("bad", [math.nan, -1.0, math.inf])
    def test_default_weights(self, bad):
        with pytest.raises(InvalidFrequency):
            default_weights(P, k_grid=[bad, 1.0])

    @pytest.mark.parametrize("bad", [math.nan, -1.0, math.inf])
    def test_decay_margin_exact(self, bad):
        with pytest.raises(InvalidFrequency):
            decay_margin_exact(P, default_weights(P), k_grid=[bad])

    @pytest.mark.parametrize("bad", [math.inf, math.nan, -1.0])
    def test_gronwall_margin(self, bad):
        # RuntimeWarning is an error in this suite, so a warning from rho fails here
        with pytest.raises(InvalidFrequency):
            gronwall_margin(P, default_weights(P), [1.0, bad], [ModeState(1.0, 0.0, 0.0, 1.0)])

    def test_zero_frequency_still_skipped(self):
        assert default_weights(P, k_grid=[0.0, 1.0, 2.0]) == default_weights(P, k_grid=[1.0, 2.0])
