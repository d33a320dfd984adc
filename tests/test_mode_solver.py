import math

import numpy as np
import pytest

from mgt_spectral import (ModeState, RootPattern, cardano_thresholds, default_weights,
                          eigenvalues, mode_coefficients, pointwise_bound_constants,
                          propagate_numeric, rho, solve_mode, solve_modes_on_grid, v_vector,
                          validate)

P = validate(0.1, 1.0)
P_CRIT = validate(1.0 / 9.0, 1.0)


def random_state(rng, k):
    return ModeState(*(rng.standard_normal(3) + 1j * rng.standard_normal(3)), k=float(k))


class TestCoefficients:
    def test_zero_data(self):
        co = mode_coefficients(P, ModeState(0.0, 0.0, 0.0, 2.0))
        assert all(c == 0.0 for c in co.coeffs)

    def test_triple_root_hand_values(self):
        co = mode_coefficients(P_CRIT, ModeState(1.0, 0.0, 0.0, math.sqrt(3.0)))
        assert co.pattern is RootPattern.TRIPLE_REAL
        assert co.coeffs[0] == pytest.approx(1.0)
        assert co.coeffs[1] == pytest.approx(3.0, rel=1e-9)
        assert co.coeffs[2] == pytest.approx(4.5, rel=1e-9)

    def test_small_k_coefficient_limits(self):
        # exact coefficients approach the leading-order (tilde) values as k -> 0;
        # written here with the sign that reproduces u(0) = u0
        tau, beta = P.tau, P.beta
        for k in (1e-2, 1e-3):
            co = mode_coefficients(P, ModeState(1.0, 0.0, 0.0, k))
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
            got = solve_mode(p, init, 0.0).as_array()
            ref = init.as_array()
            assert np.abs(got - ref).max() <= 1e-9 * (1.0 + np.abs(ref).max())

    def test_hand_rows_have_the_classified_pattern(self):
        m1 = cardano_thresholds(P).m1
        rows = [(P, 1.0, RootPattern.REAL_PLUS_PAIR),
                (P, 1.78, RootPattern.THREE_DISTINCT_REAL),
                (P, 0.0, RootPattern.REAL_WITH_DOUBLE),
                (P, math.sqrt(m1), RootPattern.REAL_WITH_DOUBLE),
                (P_CRIT, math.sqrt(3.0), RootPattern.TRIPLE_REAL)]
        for p, k, expect in rows:
            assert eigenvalues(p, k).pattern is expect
            assert mode_coefficients(p, ModeState(1.0, 0.0, 0.0, k)).pattern is expect


    def test_three_real_near_root_at_large_beta_over_tau(self):
        # the factor's roots are (-1.28e16, -1): their sum form cancels to 0
        co = mode_coefficients(validate(1e-20, 1.0), ModeState(1.0, 0.0, 0.0, 1.13e8))
        assert co.pattern is RootPattern.THREE_DISTINCT_REAL
        assert co.structure[2] == pytest.approx(-1.0, rel=1e-12)
        assert co.coeffs[2] == pytest.approx(1.0, rel=1e-12)


class TestSolveMode:
    def test_identity_at_zero(self):
        rng = np.random.default_rng(11)
        for k in (0.0, 0.5, 1.78, 40.0):
            init = random_state(rng, k)
            out = solve_mode(P, init, 0.0)
            assert np.abs(out.as_array() - init.as_array()).max() <= 1e-9

    def test_zero_frequency_linear_growth(self):
        # tau u''' + u'' = 0 with (0, 1, 0) gives u(t) = t
        for t in (0.5, 1.0, 5.0):
            st = solve_mode(P, ModeState(0.0, 1.0, 0.0, 0.0), t)
            assert st.u_hat == pytest.approx(t, rel=1e-12)
            assert st.v_hat == pytest.approx(1.0, rel=1e-12)
            assert abs(st.w_hat) <= 1e-12

    def test_zero_frequency_equilibrium(self):
        st = solve_mode(P, ModeState(1.0, 0.0, 0.0, 0.0), 10.0)
        assert st.u_hat == pytest.approx(1.0, rel=1e-12)

    def test_zero_frequency_closed_form(self):
        # u(t) = tau^2 u2 e^(-t/tau) + (u0 - tau^2 u2) + (u1 + tau u2) t
        tau = P.tau
        u0, u1, u2 = 0.3, -0.7, 1.9
        for t in (0.1, 2.0):
            st = solve_mode(P, ModeState(u0, u1, u2, 0.0), t)
            expect = tau**2 * u2 * math.exp(-t / tau) + (u0 - tau**2 * u2) + (u1 + tau * u2) * t
            assert st.u_hat == pytest.approx(expect, rel=1e-11)

    def test_trajectory_in_one_call(self):
        init = ModeState(0.4 - 0.3j, -1.1 + 0.2j, 0.7 + 0.9j, 1.2)
        ts = np.linspace(0.0, 10.0, 21)
        st = solve_mode(P, init, ts)
        assert st.u_hat.shape == st.v_hat.shape == st.w_hat.shape == ts.shape
        for j, t in enumerate(ts):
            single = solve_mode(P, init, float(t))
            np.testing.assert_allclose([st.u_hat[j], st.v_hat[j], st.w_hat[j]],
                                       single.as_array(), rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("tau, beta", [(0.1, 1.0), (0.05, 1.0), (1.0 / 9.0, 1.0),
                                           (0.9999, 1.0), (1e-3, 1e3)])
    def test_array_times_give_the_bits_of_scalar_calls(self, tau, beta):
        # a trajectory is the batch of its times: each entry has its scalar call's bits,
        # at k = 0, next to m1 and m2 and at the triple point sqrt(3) of 1/9
        p = validate(tau, beta)
        th = cardano_thresholds(p)
        ks = [0.0, 0.7, math.sqrt(3.0)] + ([] if th.m1 is None else
                                          [math.sqrt(th.m1), math.sqrt(th.m2)])
        rng = np.random.default_rng(11)
        ts = np.concatenate([[0.0], rng.uniform(0.0, 30.0, 9), [1e-3]])
        for k in ks:
            init = random_state(rng, k)
            batch = solve_mode(p, init, ts).as_array()
            for j, t in enumerate(ts):
                assert np.array_equal(batch[:, j], solve_mode(p, init, float(t)).as_array())


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
            a = solve_mode(p, init, t)
            b = propagate_numeric(p, init, t)
            err = np.abs(a.as_array() - b.as_array()).max()
            assert err <= 1e-6 * (1.0 + init.norm())

    def test_empty_times_give_empty_states_like_solve_mode(self):
        init = ModeState(1.0, 0.0, 0.0, 1.0)
        got, ref = propagate_numeric(P, init, []), solve_mode(P, init, [])
        for name in ("u_hat", "v_hat", "w_hat"):
            x, y = getattr(got, name), getattr(ref, name)
            assert x.shape == y.shape == (0,) and x.dtype == y.dtype, name
        assert got.k == ref.k == 1.0

    def test_time_array_gives_states_of_its_shape_like_solve_mode(self):
        init = ModeState(1.0, 0.5, -0.2, 1.3)
        ts = np.array([[0.0, 0.5, 1.0], [2.0, 3.0, 4.0]])
        got, ref = propagate_numeric(P, init, ts), solve_mode(P, init, ts)
        for name in ("u_hat", "v_hat", "w_hat"):
            assert getattr(got, name).shape == getattr(ref, name).shape == ts.shape, name
        assert np.abs(got.as_array() - ref.as_array()).max() <= 1e-12

    def test_numeric_zero_data(self):
        out = propagate_numeric(P, ModeState(0.0, 0.0, 0.0, 3.0), 4.0)
        assert out.norm() == 0.0

    def test_numeric_equilibrium(self):
        out = propagate_numeric(P, ModeState(1.0, 0.0, 0.0, 0.0), 10.0)
        assert out.u_hat == pytest.approx(1.0, rel=1e-9)

    def test_mutual_consistency_supercritical(self):
        p = validate(0.5, 1.0)
        init = ModeState(1.0, 1.0, 1.0, 2.0)
        a = solve_mode(p, init, 3.0)
        b = propagate_numeric(p, init, 3.0)
        assert np.abs(a.as_array() - b.as_array()).max() <= 1e-8

    def test_array_of_times_equals_scalar_calls_bit_for_bit(self):
        rng = np.random.default_rng(22)
        for k in (0.0, 1.775, 37.0):
            init = random_state(rng, k)
            ts = np.concatenate([[0.0], rng.uniform(0.0, 50.0, 8)])
            st = propagate_numeric(P, init, ts)
            assert st.u_hat.shape == st.v_hat.shape == st.w_hat.shape == ts.shape
            for j, t in enumerate(ts):
                single = propagate_numeric(P, init, float(t)).as_array()
                assert np.array_equal([st.u_hat[j], st.v_hat[j], st.w_hat[j]], single)

    def test_extreme_draws_match_mpmath(self):
        """Against a 40-digit expm of the same matrix, at large k, t and tau/beta."""
        mp = pytest.importorskip("mpmath")
        from mgt_spectral import mode_matrix

        rng = np.random.default_rng(1010)
        draws = [(0.999, 1.0, 200.0, 100.0), (0.01, 1.0, 200.0, 100.0),
                 (0.999, 2.0, 1e-6, 100.0)]
        while len(draws) < 10:
            draws.append((rng.uniform(0.5, 0.999), rng.uniform(0.5, 2.0),
                          rng.uniform(1.0, 200.0), rng.uniform(10.0, 100.0)))
        with mp.workdps(40):
            for ratio, beta, k, t in draws:
                p = validate(ratio * beta, beta)
                init = random_state(rng, k)
                y0 = init.as_array()
                phi_t = mp.matrix([[mp.mpf(x) * mp.mpf(t) for x in row]
                                   for row in mode_matrix(p, k)])
                ref = mp.expm(phi_t) * mp.matrix([mp.mpc(z) for z in y0])
                err = np.abs(propagate_numeric(p, init, t).as_array()
                             - np.array([complex(z) for z in ref])).max()
                assert err <= 1e-8 * (1.0 + init.norm()), (ratio, beta, k, t)

    def test_pade_exponential_matches_scipy(self):
        """_expm3 against scipy.linalg.expm on random dense matrices, at k = 0 and,
        through propagate_numeric's balancing, on stiff companion matrices."""
        from scipy.linalg import expm

        from mgt_spectral import mode_matrix
        from mgt_spectral.mode_solver import _expm3

        rng = np.random.default_rng(3535)
        for scale, tol in ((1e-3, 1e-14), (0.1, 1e-14), (1.0, 1e-12), (10.0, 1e-11)):
            a = rng.standard_normal((100, 3, 3)) * scale
            ref = np.array([expm(x) for x in a])
            err = np.abs(_expm3(a) - ref).max(axis=(1, 2)) / np.abs(ref).max(axis=(1, 2))
            assert err.max() <= tol, scale
        for tau in (1e-3, 0.3, 0.999):
            a = np.array([0.0, 1e-3, 1.0, 10.0, 100.0])[:, None, None] * mode_matrix(
                validate(tau, 1.0), 0.0)
            ref = np.array([expm(x) for x in a])
            assert np.abs(_expm3(a) - ref).max() <= 1e-13 * np.abs(ref).max(), tau
        for _ in range(100):
            beta = rng.uniform(0.5, 2.0)
            p = validate(rng.uniform(0.001, 0.999) * beta, beta)
            k, t = rng.uniform(0.0, 200.0), rng.uniform(0.0, 100.0)
            init = random_state(rng, k)
            ref = expm(mode_matrix(p, k) * t) @ init.as_array()
            err = np.abs(propagate_numeric(p, init, t).as_array() - ref).max()
            assert err <= 1e-8 * (1.0 + init.norm()), (p, k, t)

    def test_stiff_draws_no_worse_than_scipy_against_mpmath(self):
        """300 stiff draws against a 40-digit expm: the balanced Pade oracle's worst
        error is no larger than scipy.linalg.expm's on the same draws."""
        mp = pytest.importorskip("mpmath")
        from scipy.linalg import expm

        from mgt_spectral import mode_matrix

        rng = np.random.default_rng(3536)
        worst_ours = worst_scipy = 0.0
        with mp.workdps(40):
            for _ in range(300):
                beta = rng.uniform(0.5, 2.0)
                p = validate(rng.uniform(0.01, 0.999) * beta, beta)
                k, t = 10.0 ** rng.uniform(0.0, math.log10(200.0)), rng.uniform(1.0, 100.0)
                init = random_state(rng, k)
                y0, phi = init.as_array(), mode_matrix(p, k)
                ref = mp.expm(mp.matrix([[mp.mpf(x) * mp.mpf(t) for x in row] for row in phi]))
                ref = np.array([complex(z) for z in ref * mp.matrix([mp.mpc(z) for z in y0])])
                scale = 1.0 + init.norm()
                worst_ours = max(worst_ours, np.abs(
                    propagate_numeric(p, init, t).as_array() - ref).max() / scale)
                worst_scipy = max(worst_scipy, np.abs(expm(phi * t) @ y0 - ref).max() / scale)
        assert worst_ours <= worst_scipy, (worst_ours, worst_scipy)
        assert worst_ours <= 1e-8


class TestStructuralProperties:
    def test_semigroup(self):
        rng = np.random.default_rng(31)
        for k in (0.0, 0.7, 1.775, 10.0):
            init = random_state(rng, k)
            t1, t2 = 1.3, 2.9
            direct = solve_mode(P, init, t1 + t2)
            mid = solve_mode(P, init, t1)
            stepped = solve_mode(P, mid, t2)
            scale = 1.0 + direct.norm()
            assert np.abs(direct.as_array() - stepped.as_array()).max() <= 1e-8 * scale

    def test_linearity(self):
        rng = np.random.default_rng(41)
        k, t = 1.2, 4.0
        x, y = random_state(rng, k), random_state(rng, k)
        a, b = 1.7 - 0.3j, -0.8 + 2.1j
        combo = ModeState(*(a * x.as_array() + b * y.as_array()), k=k)
        lhs = solve_mode(P, combo, t).as_array()
        rhs = a * solve_mode(P, x, t).as_array() + b * solve_mode(P, y, t).as_array()
        assert np.abs(lhs - rhs).max() <= 1e-9 * (1.0 + np.abs(rhs).max())

    def test_matches_the_oracle_through_the_double_roots(self):
        # k = 0 and sqrt(3.125) = sqrt(m1) are double roots, 1.78 is three-real
        rng = np.random.default_rng(51)
        for k in (0.0, 0.9, 1.78, math.sqrt(3.125), 25.0):
            init = random_state(rng, k)
            for t in rng.uniform(0.0, 10.0, 10):
                got = solve_mode(P, init, float(t)).as_array()
                ref = propagate_numeric(P, init, float(t)).as_array()
                assert np.abs(got - ref).max() <= 1e-12 * (1.0 + np.abs(ref).max()), (k, t)

    def test_v_decay_pointwise(self):
        # |V(t)|^2 <= C exp(-gamma5 rho(k) t) |V(0)|^2 with measured constants
        w = default_weights(P)
        C, c = pointwise_bound_constants(P, w)
        rng = np.random.default_rng(61)
        for k in (0.2, 1.0, 5.0, 50.0):
            init = random_state(rng, k)
            v0 = v_vector(P, init).norm_sq
            for t in (0.5, 2.0, 10.0, 25.0):
                st = solve_mode(P, init, t)
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
                ref = solve_mode(P, ModeState(u0[i], u1[i], u2[i], float(k)), t)
                got = np.array([u[i], v[i], w[i]])
                assert np.abs(got - ref.as_array()).max() <= 1e-9 * (1.0 + ref.norm())

    def test_critical_grid(self):
        ks = np.array([0.5, math.sqrt(3.0), 4.0])
        u, v, w = solve_modes_on_grid(P_CRIT, ks, np.ones(3), np.zeros(3), np.zeros(3), 1.0)
        ref = solve_mode(P_CRIT, ModeState(1.0, 0.0, 0.0, math.sqrt(3.0)), 1.0)
        assert abs(u[1] - ref.u_hat) <= 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_scalar_data_broadcasts_against_the_frequencies(self, n):
        ks = np.linspace(0.3, 2.5, n)
        full = solve_modes_on_grid(P, ks, np.full(n, 1.0), np.full(n, -0.5), np.full(n, 2.0), 0.7)
        scalar = solve_modes_on_grid(P, ks, 1.0, -0.5, 2.0, 0.7)
        assert np.array_equal(np.stack(scalar), np.stack(full))
        assert all(np.array_equal(a, b) for a, b in zip(scalar.split, full.split))


# ---------------------------------------------------------------------------
# the mode kernel against an eigenvalue-free reference near every confluence
# ---------------------------------------------------------------------------

def _basis_solve(co, init):
    """Reference coefficients: a solve of the pattern's basis values and
    derivatives at t = 0 on co.structure, equal to init's state."""
    s = co.structure
    if co.pattern is RootPattern.REAL_PLUS_PAIR:
        lam, al, om = s
        m = [[1.0, 1.0, 0.0], [lam, al, om], [lam * lam, al * al - om * om, 2.0 * al * om]]
    elif co.pattern is RootPattern.THREE_DISTINCT_REAL:
        m = [[1.0, 1.0, 1.0], list(s), [x * x for x in s]]
    elif co.pattern is RootPattern.REAL_WITH_DOUBLE:
        ls, ld = s
        m = [[1.0, 1.0, 0.0], [ls, ld, 1.0], [ls * ls, ld * ld, 2.0 * ld]]
    else:
        (lam,) = s
        m = [[1.0, 0.0, 0.0], [lam, 1.0, 0.0], [lam * lam, 2.0 * lam, 2.0]]
    return np.linalg.solve(np.array(m), init.as_array())


def _expansion_u(co, t):
    """u(t) summed from the coefficients in the basis of co.pattern."""
    (c1, c2, c3), s = co.coeffs, co.structure
    if co.pattern is RootPattern.REAL_PLUS_PAIR:
        lam, al, om = s
        return c1 * np.exp(lam * t) + np.exp(al * t) * (c2 * np.cos(om * t) + c3 * np.sin(om * t))
    if co.pattern is RootPattern.THREE_DISTINCT_REAL:
        return sum(c * np.exp(x * t) for c, x in zip(co.coeffs, s))
    if co.pattern is RootPattern.REAL_WITH_DOUBLE:
        ls, ld = s
        return c1 * np.exp(ls * t) + (c2 + c3 * t) * np.exp(ld * t)
    return (c1 + c2 * t + c3 * t * t) * np.exp(s[0] * t)


class TestExpansion:
    """mode_coefficients reads the expansion off the kernel's Newton directions."""

    def _sweep(self):
        """(params, k) draws over all four patterns, k^2 at least 1% of the
        band m2 - m1 away from each threshold, plus k = 0, m1, m2 and the triple point."""
        from mgt_spectral import cardano_thresholds

        rng = np.random.default_rng(34)
        rows = [(validate(beta / 9.0, beta), math.sqrt(3.0) / beta) for beta in (0.5, 1.0, 4.0)]
        for i in range(120):
            beta = 10.0 ** rng.uniform(-2.0, 2.0)
            ratio = rng.uniform(0.12, 0.99) if i % 2 else rng.uniform(0.005, 0.1)
            p = validate(ratio * beta, beta)
            free = 10.0 ** rng.uniform(-3.0, 3.0, 3) / (p.tau * beta)
            thr = cardano_thresholds(p)
            m1, m2 = thr.m1, thr.m2
            if m1 is None:  # above 1/9: a pair at every k > 0
                rows += [(p, math.sqrt(k2)) for k2 in [0.0, *free]]
                continue
            band = [m1 + u * (m2 - m1) for u in rng.uniform(0.05, 0.95, 2)]
            free = [k2 for k2 in free if min(abs(k2 - m1), abs(k2 - m2)) >= 1e-2 * (m2 - m1)]
            rows += [(p, math.sqrt(k2)) for k2 in [0.0, m1, m2, *band, *free]]
        return rng, rows

    def test_matches_the_basis_solve(self):
        rng, rows = self._sweep()
        seen = set()
        for p, k in rows:
            init = ModeState(*(rng.standard_normal(3) + 1j * rng.standard_normal(3)), k=k)
            co = mode_coefficients(p, init)
            ref = _basis_solve(co, init)
            assert np.abs(np.array(co.coeffs) - ref).max() <= 1e-13 * (1.0 + np.abs(ref).max())
            seen.add(co.pattern)
        assert seen == set(RootPattern)

    @pytest.mark.parametrize("p,k,pattern", [
        (P, 1.0, RootPattern.REAL_PLUS_PAIR),
        (P, 1.78, RootPattern.THREE_DISTINCT_REAL),
        (P, 0.0, RootPattern.REAL_WITH_DOUBLE),
        (validate(0.3, 1.0), 5.0, RootPattern.REAL_PLUS_PAIR),
    ])
    def test_rebuilds_solve_mode(self, p, k, pattern):
        init = random_state(np.random.default_rng(7), k)
        co = mode_coefficients(p, init)
        assert co.pattern is pattern
        for t in (0.5, 3.0, 10.0):
            ref = solve_mode(p, init, t).u_hat
            assert abs(_expansion_u(co, t) - ref) <= 1e-12 * (1.0 + abs(ref))

    def test_pair_coefficients_are_the_grid_split(self):
        rng = np.random.default_rng(8)
        ks = np.linspace(0.05, 6.0, 40)
        y0 = rng.standard_normal((3, ks.size)) + 1j * rng.standard_normal((3, ks.size))
        L, P_, S = solve_modes_on_grid(P, ks, *y0, 1.0).split[3:]
        pairs = 0
        for i, k in enumerate(ks):
            co = mode_coefficients(P, ModeState(*y0[:, i], k=float(k)))
            if co.pattern is RootPattern.REAL_PLUS_PAIR:
                pairs += 1
                assert co.coeffs == (L[0, i], P_[0, i], S[0, i])
        assert pairs > 30


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
                    scalar = solve_mode(p, ModeState(*self.Y0, k=float(k)), t)
                    for got in (scalar.as_array(), grid[:, i]):
                        worst = max(worst, np.linalg.norm(got - ref) / np.linalg.norm(ref))
        assert worst <= 1e-10

    def test_automatic_path_never_raises(self):
        for p, k2s in _confluent_windows():
            for k in np.sqrt(k2s):
                init = ModeState(*self.Y0, k=float(k))
                co = mode_coefficients(p, init)
                assert co.pattern in RootPattern
                assert np.all(np.isfinite(solve_mode(p, init, 3.0).as_array()))

    def test_array_times_equal_scalar_calls(self):
        ts = np.linspace(0.0, 10.0, 41)
        for p, k in ((P, 0.0), (P, 1.2), (P, math.sqrt(3.125)), (P_CRIT, math.sqrt(3.0))):
            init = ModeState(*self.Y0, k=k)
            batch = solve_mode(p, init, ts).as_array()
            for j, t in enumerate(ts):
                single = solve_mode(p, init, float(t)).as_array()
                np.testing.assert_allclose(batch[:, j], single, rtol=1e-14, atol=0.0)


class TestOneModePattern:
    """The description's pattern is eigenvalues' on the confluence windows and
    at k^2 within 1e-12..1e-3 of m1, where the roots nearly coincide."""

    def test_pattern_is_the_eigenvalue_pattern(self):
        p = validate(0.02, 1.1)
        offsets = np.geomspace(1e-12, 1e-3, 19)
        rows = _confluent_windows() + [(p, cardano_thresholds(p).m1 * (1.0 + sign * offsets))
                                       for sign in (-1.0, 1.0)]
        y0 = TestConfluenceSweep.Y0
        mismatches = []
        for p, k2s in rows:
            for k in np.sqrt(k2s).tolist():
                got = mode_coefficients(p, ModeState(*y0, k=k)).pattern
                if got is not eigenvalues(p, k).pattern:
                    mismatches.append((p.tau, p.beta, k, got))
        assert mismatches == []


class TestZeroFrequencyKernel:
    def test_decoupled_third_row_keeps_relative_accuracy_for_any_tau(self):
        # at k = 0 the third row decouples, u''' = -u''/tau, so u'' = 1.9 e^(-t/tau)
        # exactly; the oracle test above covers only tau = 0.1
        rng = np.random.default_rng(91)
        for tau in rng.uniform(1e-3, 5.0, 60):
            p = validate(float(tau), 2.0 * float(tau))
            for t in (1.0, 5.0, 20.0):
                w = solve_mode(p, ModeState(0.3, -0.7, 1.9, 0.0), t * tau).w_hat
                exact = 1.9 * math.exp(-(t * tau) / tau)
                assert abs(w - exact) <= 1e-14 * exact, (tau, t)


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


class TestSplitTerms:
    """The split of the kernel the norm quadratures integrate where r t >= pi."""

    @pytest.mark.parametrize("tau,beta", [(0.05, 1.0), ((1.0 + 1e-9) / 9.0, 1.0), (0.3, 1.0),
                                          (0.965, 1.0)])
    @pytest.mark.parametrize("t", [0.7, 40.0])
    def test_rebuilds_the_kernel_where_trusted(self, tau, beta, t):
        from mgt_spectral.spectrum import _cubic_roots_batch

        p = validate(tau, beta)
        ks = np.linspace(0.0, 6.0, 601)
        y0 = np.stack([np.exp(-ks * ks / 2), np.cos(ks), ks * np.exp(-ks)])
        state = solve_modes_on_grid(p, ks, *y0, t)
        lam, alpha, r, L, P, S = state.split
        # the split carries the roots of the factor the state was propagated with, bit for bit
        factor = _cubic_roots_batch(tau, beta, ks * ks)
        assert np.array_equal(lam, factor[3]) and np.array_equal(alpha, factor[4])
        y = np.stack(state)
        trusted = r * t >= math.pi
        assert trusted.any()
        rebuilt = np.exp(lam * t) * L + np.exp(alpha * t) * (P * np.cos(r * t) + S * np.sin(r * t))
        scale = np.abs(y0).max(axis=0) * (1.0 + ks * ks)
        assert np.all(np.abs(rebuilt - y)[:, trusted] <= 1e-12 * scale[trusted])


class TestSmallTauAgainstMpmath:
    """Small tau/beta, where the fast root lam ~ -1/tau lies far from the pair and
    the Newton coefficient must not cancel: u and u' against a 40-digit
    eigen-expansion of each unit initial vector."""

    KS = np.geomspace(1e-2, 10.0, 7)
    TIMES = (0.5, 10.0, 1e3)

    @staticmethod
    def _reference(mp, tau, k, unit, times):
        """(u, u') at each time, sum_j c_j lam_j^m e^{lam_j t}, the c_j from the
        Vandermonde system of the three roots of tau z^3 + z^2 + k^2 z + k^2."""
        tau, k = mp.mpf(tau), mp.mpf(k)
        lams = mp.polyroots([tau, 1, k * k, k * k], maxsteps=200, extraprec=200)
        c = mp.lu_solve(mp.matrix([[lam**i for lam in lams] for i in range(3)]),
                        mp.matrix([1 if i == unit else 0 for i in range(3)]))
        return [[float(mp.re(sum(cj * lam**m * mp.exp(lam * mp.mpf(t))
                                 for cj, lam in zip(c, lams)))) for m in range(2)]
                for t in times]

    @pytest.mark.parametrize("tau", [1e-4, 1e-6, 1e-8, 1e-10])
    def test_u_and_u_t_of_each_unit_vector(self, tau):
        mp = pytest.importorskip("mpmath")
        p = validate(tau, 1.0)
        worst = {}
        with mp.workdps(40):
            for unit in range(3):
                y0 = [np.full(self.KS.size, float(i == unit)) for i in range(3)]
                got = [np.array(solve_modes_on_grid(p, self.KS, *y0, t))[:2] for t in self.TIMES]
                for i, k in enumerate(self.KS):
                    for g, ref in zip(got, self._reference(mp, tau, k, unit, self.TIMES)):
                        for m in range(2):
                            # below 1e-250 the state is at the underflow end: compare absolutely
                            err = abs(g[m, i] - ref[m]) / max(abs(ref[m]), 1e-250)
                            worst[unit, m] = max(worst.get((unit, m), 0.0), err)
        assert max(worst[unit, 0] for unit in range(3)) <= 1e-11, worst
        # u' from u''(0) = 1 is left out: its loss is componentwise, not this cancellation
        assert max(worst[0, 1], worst[1, 1]) <= 1e-12, worst

    @pytest.mark.parametrize("tau, k", [(1e-20, 1.13e8), (1e-10, 2.143e4)])
    def test_u_at_large_beta_over_tau(self, tau, k):
        # a three-real factor with two roots far apart: u ~ e^-t from the near one
        mp = pytest.importorskip("mpmath")
        times = (1e-3, 1.0, 10.0)
        got = solve_mode(validate(tau, 1.0), ModeState(1.0, 0.0, 0.0, k), np.array(times)).u_hat
        with mp.workdps(50):
            ref = [u for u, _ in self._reference(mp, tau, k, 0, times)]
        assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref)), (got, ref)
