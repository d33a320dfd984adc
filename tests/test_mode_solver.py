import math

import numpy as np
import pytest

from mgt_spectral import (IllConditioned, ModeState, RootPattern, default_weights,
                          evaluate_mode, mode_coefficients, ode_residual,
                          pointwise_bound_constants, propagate_numeric, rho, solve_mode,
                          solve_modes_on_grid, v_vector, validate)

P = validate(0.1, 1.0)
P_CRIT = validate(1.0 / 9.0, 1.0)


def random_state(rng, k):
    return ModeState(*(rng.standard_normal(3) + 1j * rng.standard_normal(3)), k=float(k))


class TestCoefficients:
    def test_zero_data(self):
        co = mode_coefficients(P, 2.0, ModeState(0.0, 0.0, 0.0, 2.0))
        assert all(c == 0.0 for c in co.coeffs)

    def test_triple_root_hand_values(self):
        co = mode_coefficients(P_CRIT, math.sqrt(3.0), ModeState(1.0, 0.0, 0.0, math.sqrt(3.0)))
        assert co.pattern is RootPattern.TRIPLE_REAL
        assert co.coeffs[0] == pytest.approx(1.0)
        assert co.coeffs[1] == pytest.approx(3.0, rel=1e-9)
        assert co.coeffs[2] == pytest.approx(4.5, rel=1e-9)

    def test_small_k_coefficient_limits(self):
        # exact coefficients approach the leading-order (tilde) values as k -> 0;
        # written here with the sign that reproduces u(0) = u0
        tau, beta = P.tau, P.beta
        for k in (1e-2, 1e-3):
            co = mode_coefficients(P, k, ModeState(1.0, 0.0, 0.0, k))
            c1, c2, c3 = co.coeffs
            tilde_c1 = tau * tau * k * k
            tilde_c2 = 1.0
            tilde_c3 = 0.5 * (beta + tau) * k
            assert abs(c1 - tilde_c1) <= 20.0 * k**3
            assert abs(c2 - tilde_c2) <= 5.0 * k
            assert abs(c3 - tilde_c3) <= 5.0 * k * k / k  # relative O(k) on a O(k) value

    def test_roundtrip_all_patterns(self):
        rng = np.random.default_rng(5)
        cases = [
            (P, 1.0),                        # pair
            (P, 1.78),                       # three distinct reals
            (P, math.sqrt(3.125)),           # double at m1
            (P, math.sqrt(3.2)),             # double at m2
            (P, 0.0),                        # double at zero
            (P_CRIT, math.sqrt(3.0)),        # triple
        ]
        for p, k in cases:
            init = random_state(rng, k)
            co = mode_coefficients(p, k, init)
            u, v, w = evaluate_mode(co, k, 0.0, n_derivatives=2)
            got = np.array([u, v, w])
            ref = init.as_array()
            assert np.abs(got - ref).max() <= 1e-9 * (1.0 + np.abs(ref).max())

    def test_forced_distinct_near_confluence_raises(self):
        k = math.sqrt(3.125 + 1e-12)
        with pytest.raises(IllConditioned):
            mode_coefficients(P, k, ModeState(1.0, 0.0, 0.0, k),
                              pattern=RootPattern.THREE_DISTINCT_REAL)


class TestSolveMode:
    def test_identity_at_zero(self):
        rng = np.random.default_rng(11)
        for k in (0.0, 0.5, 1.78, 40.0):
            init = random_state(rng, k)
            out = solve_mode(P, k, init, 0.0)
            assert np.abs(out.as_array() - init.as_array()).max() <= 1e-9

    def test_zero_frequency_linear_growth(self):
        # tau u''' + u'' = 0 with (0, 1, 0) gives u(t) = t
        for t in (0.5, 1.0, 5.0):
            st = solve_mode(P, 0.0, ModeState(0.0, 1.0, 0.0, 0.0), t)
            assert st.u_hat == pytest.approx(t, rel=1e-12)
            assert st.v_hat == pytest.approx(1.0, rel=1e-12)
            assert abs(st.w_hat) <= 1e-12

    def test_zero_frequency_equilibrium(self):
        st = solve_mode(P, 0.0, ModeState(1.0, 0.0, 0.0, 0.0), 10.0)
        assert st.u_hat == pytest.approx(1.0, rel=1e-12)

    def test_zero_frequency_closed_form(self):
        # u(t) = tau^2 u2 e^(-t/tau) + (u0 - tau^2 u2) + (u1 + tau u2) t
        tau = P.tau
        u0, u1, u2 = 0.3, -0.7, 1.9
        for t in (0.1, 2.0):
            st = solve_mode(P, 0.0, ModeState(u0, u1, u2, 0.0), t)
            expect = tau**2 * u2 * math.exp(-t / tau) + (u0 - tau**2 * u2) + (u1 + tau * u2) * t
            assert st.u_hat == pytest.approx(expect, rel=1e-11)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            solve_mode(P, 1.0, ModeState(1.0, 0.0, 0.0, 1.0), -1.0)


class TestOracleEquivalence:
    def test_against_numeric_propagator(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            tau = rng.uniform(0.05, 0.9)
            beta = rng.uniform(tau + 0.05, 2.0)
            p = validate(tau, beta)
            k = rng.uniform(0.0, 50.0)
            t = rng.uniform(0.0, 20.0)
            init = random_state(rng, k)
            a = solve_mode(p, k, init, t)
            b = propagate_numeric(p, k, init, t, tol=1e-10)
            err = np.abs(a.as_array() - b.as_array()).max()
            assert err <= 1e-6 * (1.0 + init.norm())

    def test_numeric_zero_data(self):
        out = propagate_numeric(P, 3.0, ModeState(0.0, 0.0, 0.0, 3.0), 4.0, 1e-10)
        assert out.norm() == 0.0

    def test_numeric_equilibrium(self):
        out = propagate_numeric(P, 0.0, ModeState(1.0, 0.0, 0.0, 0.0), 10.0, 1e-12)
        assert out.u_hat == pytest.approx(1.0, rel=1e-9)

    def test_mutual_consistency_supercritical(self):
        p = validate(0.5, 1.0)
        init = ModeState(1.0, 1.0, 1.0, 2.0)
        a = solve_mode(p, 2.0, init, 3.0)
        b = propagate_numeric(p, 2.0, init, 3.0, 1e-11)
        assert np.abs(a.as_array() - b.as_array()).max() <= 1e-8


class TestStructuralProperties:
    def test_semigroup(self):
        rng = np.random.default_rng(31)
        for k in (0.0, 0.7, 1.775, 10.0):
            init = random_state(rng, k)
            t1, t2 = 1.3, 2.9
            direct = solve_mode(P, k, init, t1 + t2)
            mid = solve_mode(P, k, init, t1)
            stepped = solve_mode(P, k, mid, t2)
            scale = 1.0 + direct.norm()
            assert np.abs(direct.as_array() - stepped.as_array()).max() <= 1e-8 * scale

    def test_linearity(self):
        rng = np.random.default_rng(41)
        k, t = 1.2, 4.0
        x, y = random_state(rng, k), random_state(rng, k)
        a, b = 1.7 - 0.3j, -0.8 + 2.1j
        combo = ModeState(*(a * x.as_array() + b * y.as_array()), k=k)
        lhs = solve_mode(P, k, combo, t).as_array()
        rhs = a * solve_mode(P, k, x, t).as_array() + b * solve_mode(P, k, y, t).as_array()
        assert np.abs(lhs - rhs).max() <= 1e-9 * (1.0 + np.abs(rhs).max())

    def test_ode_residual(self):
        rng = np.random.default_rng(51)
        for k in (0.0, 0.9, 1.78, math.sqrt(3.125), 25.0):
            init = random_state(rng, k)
            for t in rng.uniform(0.0, 10.0, 10):
                res, scale = ode_residual(P, k, init, float(t))
                assert res <= 1e-9 * scale

    def test_v_decay_pointwise(self):
        # |V(t)|^2 <= C exp(-gamma5 rho(k) t) |V(0)|^2 with measured constants
        w = default_weights(P)
        C, c = pointwise_bound_constants(P, w)
        rng = np.random.default_rng(61)
        for k in (0.2, 1.0, 5.0, 50.0):
            init = random_state(rng, k)
            v0 = v_vector(P, init).norm_sq
            for t in (0.5, 2.0, 10.0, 25.0):
                st = solve_mode(P, k, init, t)
                vt = v_vector(P, st).norm_sq
                assert vt <= C * math.exp(-c * float(rho(k)) * t) * v0 * (1.0 + 1e-9)


class TestVVector:
    def test_zero(self):
        vv = v_vector(P, ModeState(0.0, 0.0, 0.0, 1.0))
        assert vv.a == 0.0 and vv.b_mag == 0.0 and vv.c_mag == 0.0
        assert vv.norm_sq == 0.0

    def test_hand_values(self):
        vv = v_vector(P, ModeState(1.0, 1.0, 1.0, 2.0))
        assert vv.a == pytest.approx(1.1)
        assert vv.b_mag == pytest.approx(2.2)
        assert vv.c_mag == pytest.approx(2.0)

    def test_norm_recomputation(self):
        rng = np.random.default_rng(71)
        st = random_state(rng, 3.0)
        vv = v_vector(P, st)
        expect = (abs(st.v_hat + P.tau * st.w_hat) ** 2
                  + 9.0 * abs(st.u_hat + P.tau * st.v_hat) ** 2
                  + 9.0 * abs(st.v_hat) ** 2)
        assert vv.norm_sq == pytest.approx(expect, rel=1e-12)


class TestGridEvaluation:
    def test_matches_scalar_path(self):
        rng = np.random.default_rng(81)
        ks = np.array([0.0, 1e-3, 0.5, 1.0, math.sqrt(3.125), 1.78, math.sqrt(3.2), 2.5, 60.0])
        u0 = rng.standard_normal(ks.size)
        u1 = rng.standard_normal(ks.size)
        u2 = rng.standard_normal(ks.size)
        for t in (0.0, 0.7, 12.0):
            u, v, w = solve_modes_on_grid(P, ks, u0, u1, u2, t)
            for i, k in enumerate(ks):
                ref = solve_mode(P, float(k), ModeState(u0[i], u1[i], u2[i], float(k)), t)
                got = np.array([u[i], v[i], w[i]])
                assert np.abs(got - ref.as_array()).max() <= 1e-9 * (1.0 + ref.norm())

    def test_critical_grid(self):
        ks = np.array([0.5, math.sqrt(3.0), 4.0])
        u, v, w = solve_modes_on_grid(P_CRIT, ks, np.ones(3), np.zeros(3), np.zeros(3), 1.0)
        ref = solve_mode(P_CRIT, math.sqrt(3.0), ModeState(1.0, 0.0, 0.0, math.sqrt(3.0)), 1.0)
        assert abs(u[1] - ref.u_hat) <= 1e-10


# ---------------------------------------------------------------------------
# the mode kernel against an eigenvalue-free reference near every confluence
# ---------------------------------------------------------------------------

SWEEP_TIMES = (0.0, 0.01, 0.5, 3.0, 10.0)


def _confluent_windows():
    """(params, k^2) pairs: tau/beta = (1 - d)/9 with k^2 around the merged
    threshold, and k^2 around m1 and m2 at three regular ratios."""
    from mgt_spectral import cardano_thresholds

    near = np.geomspace(1e-14, 1e-3, 12)
    merged_offsets = np.concatenate([-near, [0.0], near])
    side = np.geomspace(1e-14, 1e-6, 9)
    side_offsets = np.concatenate([-side, [0.0], side])
    out = []
    for d in (1e-13, 1e-11, 1e-9, 1e-7, 1e-5):
        p = validate((1.0 - d) / 9.0, 1.0)
        thr = cardano_thresholds(p)
        m = 0.5 * (thr.m1 + thr.m2)
        out.append((p, m * (1.0 + merged_offsets)))
    for tau, beta in ((0.1, 1.0), (0.02, 1.1), (0.09, 1.2)):
        p = validate(tau, beta)
        thr = cardano_thresholds(p)
        for m in (thr.m1, thr.m2):
            out.append((p, m * (1.0 + side_offsets)))
    return out


def _expm_reference(p, k, y0, t):
    from scipy.linalg import expm

    from mgt_spectral import mode_matrix
    return expm(mode_matrix(p, k) * t) @ y0


class TestConfluenceSweep:
    Y0 = np.array([0.4 - 0.3j, -1.1 + 0.2j, 0.7 + 0.9j])

    def test_scalar_and_grid_match_expm(self):
        worst = 0.0
        for p, k2s in _confluent_windows():
            ks = np.sqrt(k2s)
            for t in SWEEP_TIMES:
                grid = np.array(solve_modes_on_grid(
                    p, ks, np.full(ks.size, self.Y0[0]), np.full(ks.size, self.Y0[1]),
                    np.full(ks.size, self.Y0[2]), t))
                for i, k in enumerate(ks):
                    ref = _expm_reference(p, k, self.Y0, t)
                    scalar = solve_mode(p, float(k), ModeState(*self.Y0, k=float(k)), t)
                    for got in (scalar.as_array(), grid[:, i]):
                        worst = max(worst, np.linalg.norm(got - ref) / np.linalg.norm(ref))
        assert worst <= 1e-10

    def test_automatic_path_never_raises(self):
        for p, k2s in _confluent_windows():
            for k in np.sqrt(k2s):
                init = ModeState(*self.Y0, k=float(k))
                co = mode_coefficients(p, float(k), init)
                assert co.pattern in RootPattern
                assert np.all(np.isfinite(solve_mode(p, float(k), init, 3.0).as_array()))

    def test_array_times_equal_scalar_calls(self):
        ts = np.linspace(0.0, 10.0, 41)
        for p, k in ((P, 0.0), (P, 1.2), (P, math.sqrt(3.125)), (P_CRIT, math.sqrt(3.0))):
            co = mode_coefficients(p, k, ModeState(*self.Y0, k=k))
            for n_der in (2, 3):
                batch = evaluate_mode(co, k, ts, n_derivatives=n_der)
                assert len(batch) == n_der + 1
                for j, t in enumerate(ts):
                    single = evaluate_mode(co, k, float(t), n_derivatives=n_der)
                    np.testing.assert_allclose([b[j] for b in batch], single,
                                               rtol=1e-14, atol=0.0)


class TestZeroFrequencyKernel:
    def test_decoupled_third_row_keeps_relative_accuracy_for_any_tau(self):
        # at k = 0, u'' = e^(-t/tau) u''(0) exactly; the residual test above
        # covers only tau = 0.1, where the computed root happens to be exact
        rng = np.random.default_rng(91)
        for tau in rng.uniform(1e-3, 5.0, 60):
            p = validate(float(tau), 2.0 * float(tau))
            for t in (1.0, 5.0, 20.0):
                res, scale = ode_residual(p, 0.0, ModeState(0.3, -0.7, 1.9, 0.0), t * tau)
                assert res <= 1e-9 * scale


class TestLargeFrequency:
    def test_beyond_the_root_range_raises(self):
        from mgt_spectral import InvalidFrequency, eigenvalues

        with pytest.raises(InvalidFrequency, match="1e\\+102"):
            eigenvalues(P, 1e100)
        with pytest.raises(InvalidFrequency):
            solve_modes_on_grid(P, np.array([1.0, 1e100]), np.ones(2), np.zeros(2),
                                np.zeros(2), 1.0)

    def test_large_but_admissible_frequency_stays_finite(self):
        from mgt_spectral import eigenvalues

        assert np.all(np.isfinite(eigenvalues(P, 1e50).lambdas))
        for t in (0.0, 1.0, 1e4):
            out = solve_modes_on_grid(P, np.array([1e50]), np.ones(1), np.ones(1),
                                      np.ones(1), t)
            assert all(np.all(np.isfinite(x)) for x in out)
