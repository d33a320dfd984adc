import dataclasses
import math

import numpy as np
import pytest

from mgt_spectral import (EmptyInput, ModeState, NonPositiveMargin,
                          decay_margin_exact, default_weights, energy_dissipation_residual,
                          functionals, gronwall_margin, mode_coefficients, evaluate_mode,
                          pointwise_bound_constants, rho, solve_mode, v_vector, validate)
from mgt_spectral import lyapunov
from mgt_spectral.lyapunov import _DEFAULT_K_GRID

P = validate(0.1, 1.0)

#: points across the regimes: both sides of 1/9 and the critical ratio, near tau = beta,
#: and a large beta
GRONWALL_POINTS = [(0.1, 1.0), (0.05, 1.0), (0.3, 1.0), (1.0 / 9.0, 1.0), (0.965, 1.0),
                   (0.9999, 1.0), (1e-3, 1e3), (0.11111111111112, 1.0)]


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

    def test_widened_sandwich_covers_every_frequency(self):
        # L/E spans gamma0 -/+ sigma k/(1+k^2), widest at k = 1, which the
        # grid misses; the 0.1% widening covers the supremum over all k > 0
        for p in _weight_points():
            w = default_weights(p)
            sigma = math.sqrt(1.0 + w.gamma1**2 * p.tau / (p.beta - p.tau))
            assert w.equiv_lo <= w.gamma0 - sigma / 2.0
            assert w.equiv_hi >= w.gamma0 + sigma / 2.0

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
        f = functionals(P, solve_mode(P, init, ts), w)
        for j, t in enumerate(ts):
            single = functionals(P, solve_mode(P, init, float(t)), w)
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
        assert energy_dissipation_residual(P, ModeState(0.0, 0.0, 0.0, 1.0), 1.0)[0] == 0.0

    def test_along_trajectories(self):
        init = ModeState(1.0, 1.0, 1.0, 1.0)
        for t in (0.0, 1.0, 5.0):
            res, scale = energy_dissipation_residual(P, init, t)
            assert res <= 1e-9 * scale

    def test_zero_frequency_energy_constant(self):
        # at k = 0 the energy is |v + tau w|^2 / 2 and the identity reads dE/dt = 0
        init = ModeState(0.7, -0.3, 0.4, 0.0)
        for t in (0.0, 2.0, 9.0):
            res, _ = energy_dissipation_residual(P, init, t)
            assert res <= 1e-12

    def test_all_patterns(self):
        rng = np.random.default_rng(23)
        p_crit = validate(1.0 / 9.0, 1.0)
        cases = [(P, 1.0), (P, 1.78), (P, math.sqrt(3.125)), (p_crit, math.sqrt(3.0)), (P, 0.0)]
        for p, k in cases:
            init = random_state(rng, k)
            for t in rng.uniform(0.0, 8.0, 10):
                res, scale = energy_dissipation_residual(p, init, float(t))
                assert res <= 1e-9 * scale


class TestDissipationOverTimes:
    """An array of times is one kernel call and gives what the scalar calls give."""

    def test_array_times_match_scalar_calls(self):
        rng = np.random.default_rng(31)
        for p, k in [(P, 1.0), (P, 1.78), (validate(0.5, 1.2), 7.0), (P, 0.0)]:
            init = random_state(rng, k)
            ts = rng.uniform(0.0, 10.0, 10)
            res, scale = energy_dissipation_residual(p, init, ts)
            assert res.shape == scale.shape == ts.shape
            for t, r, s in zip(ts, res, scale):
                assert s == pytest.approx(energy_dissipation_residual(p, init, float(t))[1],
                                          rel=1e-12)
                assert r <= 1e-9 * s

    def test_scalar_time_returns_float(self):
        init = ModeState(1.0, 1.0, 1.0, 1.0)
        res, scale = energy_dissipation_residual(P, init, 2.0)
        assert type(res) is float and type(scale) is float


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

    def test_margin_is_the_largest_admissible(self):
        # gamma5 rho L <= MARGIN_TOL L - dL/dt at every swept point, and 1e-12
        # more breaks it at some point unless gamma5 is the cap 1/tau
        w = default_weights(P)
        rng = np.random.default_rng(47)
        ks = np.geomspace(0.05, 50.0, 6)
        samples = [random_state(rng, 1.0) for _ in range(3)]
        g5 = gronwall_margin(P, w, ks, samples)
        ts = np.linspace(0.0, 25.0, 126)  # the sweep's default time grid
        slack, rho_l = [], []
        for k in ks.tolist():
            for s in samples:
                st = solve_mode(P, ModeState(s.u_hat, s.v_hat, s.w_hat, k=k), ts)
                f = functionals(P, st, w)
                rates = lyapunov._state_rates(P, st)
                dl = (w.gamma0 * rates["dE"] + f.rho * rates["dF1"]
                      + w.gamma1 * f.rho * rates["dF2"])
                slack.append(lyapunov.MARGIN_TOL * f.lyap - dl)
                rho_l.append(f.rho * f.lyap)
        slack, rho_l = np.concatenate(slack), np.concatenate(rho_l)
        assert 0.0 < g5 <= 1.0 / P.tau
        assert np.all(g5 * rho_l <= slack * (1.0 + 1e-14))
        if g5 < 1.0 / P.tau:
            assert np.any(g5 * (1.0 + 1e-12) * rho_l > slack)

    @pytest.mark.parametrize("tau, beta", GRONWALL_POINTS)
    def test_one_kernel_call_equals_the_per_pair_sweep(self, tau, beta):
        # the block sweep gives the bits of one solve_mode trajectory per (k, sample)
        # pair; k = 0 and the all-zero sample are degenerate and must be left out
        p = validate(tau, beta)
        w = default_weights(p)
        ks = np.concatenate([[0.0], np.geomspace(0.05, 50.0, 10)])
        ts = np.linspace(0.0, 25.0, 126)  # the sweep's default time grid
        for seed in range(5):
            rng = np.random.default_rng(300 + seed)
            samples = [random_state(rng, 1.0) for _ in range(3)] + [ModeState(0, 0, 0, 1.0)]
            slack, rho_l = [], []
            for k in ks.tolist():
                if k == 0.0:
                    continue
                for s in samples:
                    st = solve_mode(p, ModeState(s.u_hat, s.v_hat, s.w_hat, k=k), ts)
                    f = functionals(p, st, w)
                    rates = lyapunov._state_rates(p, st)
                    dl = (w.gamma0 * rates["dE"] + f.rho * rates["dF1"]
                          + w.gamma1 * f.rho * rates["dF2"])
                    keep = f.lyap > 1e-280
                    slack.append(lyapunov.MARGIN_TOL * f.lyap[keep] - dl[keep])
                    rho_l.append(f.rho * f.lyap[keep])
            slack, rho_l = np.concatenate(slack), np.concatenate(rho_l)
            assert rho_l.size == 10 * 3 * ts.size and np.all(slack >= 0.0)
            ref = float(np.min(slack / rho_l, initial=1.0 / p.tau))
            assert gronwall_margin(p, w, ks, samples) == ref

    @pytest.mark.parametrize("k", [1e-200, 1e-160])
    def test_underflowing_rho_bounds_nothing(self, k):
        # rho L is 0 at k = 1e-200 and subnormal at 1e-160, where the bound
        # overflows; neither point caps gamma5, and no warning is raised
        samples = [ModeState(1.0, 0.5, -0.25, 1.0)]
        assert gronwall_margin(P, default_weights(P), [k], samples) == 1.0 / P.tau

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

    def test_monotone_weighted_decay(self):
        # t -> L(t) exp(gamma5 rho t) is nonincreasing along trajectories
        w = default_weights(P)
        rng = np.random.default_rng(37)
        for k in (0.3, 1.0, 4.0, 20.0):
            init = random_state(rng, k)
            coeffs = mode_coefficients(P, init)
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
                st = solve_mode(P, init, t)
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
            coeffs = mode_coefficients(P, init)
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


def _mp_pencil_extremes(mp, a, b):
    """Least and largest eigenvalue of the symmetric-definite pencil (a, b), 3x3 mpf lists.

    b = c c^T by Cholesky, then the trigonometric eigenvalues of c^-1 a c^-T.
    """
    n = range(3)
    c = [[mp.mpf(0)] * 3 for _ in n]
    for i in n:
        for j in range(i + 1):
            t = b[i][j] - sum(c[i][m] * c[j][m] for m in range(j))
            c[i][j] = mp.sqrt(t) if i == j else t / c[j][j]

    def lower_solve(rhs):
        x = [[mp.mpf(0)] * 3 for _ in n]
        for col in n:
            for i in n:
                x[i][col] = (rhs[i][col] - sum(c[i][m] * x[m][col] for m in range(i))) / c[i][i]
        return x

    ca = lower_solve(a)
    s = lower_solve([[ca[j][i] for j in n] for i in n])
    q = (s[0][0] + s[1][1] + s[2][2]) / 3
    off = s[0][1] ** 2 + s[0][2] ** 2 + s[1][2] ** 2
    r = mp.sqrt(((s[0][0] - q) ** 2 + (s[1][1] - q) ** 2 + (s[2][2] - q) ** 2 + 2 * off) / 6)
    d = [[(s[i][j] - (q if i == j else 0)) / r for j in n] for i in n]
    half_det = (d[0][0] * (d[1][1] * d[2][2] - d[1][2] ** 2)
                - d[0][1] * (d[0][1] * d[2][2] - d[1][2] * d[0][2])
                + d[0][2] * (d[0][1] * d[1][2] - d[1][1] * d[0][2])) / 2
    phi = mp.acos(max(-1, min(1, half_det))) / 3
    return q + 2 * r * mp.cos(phi + 2 * mp.pi / 3), q + 2 * r * mp.cos(phi)


def _mp_weight_reference(p, w, ks):
    """(gamma5, equiv_lo, equiv_hi), unwidened, by 40-digit mpmath in (u, v, w) coordinates.

    Independent of the package's energy coordinates: the energy, Lyapunov and
    dissipation matrices are built from the state (u, v, w) and the mode matrix.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        tau, beta, g0, g1 = (mp.mpf(x) for x in (p.tau, p.beta, w.gamma0, w.gamma1))
        a, b, ev = [0, 1, tau], [1, tau, 0], [0, 1, 0]
        lo, hi, g5 = g0, g0, mp.inf
        for k in ks:
            k2 = mp.mpf(k) ** 2
            r = k2 / (1 + k2)
            me = [[(a[i] * a[j] + tau * (beta - tau) * k2 * ev[i] * ev[j] + k2 * b[i] * b[j]) / 2
                   for j in range(3)] for i in range(3)]
            ml = [[g0 * me[i][j] + r * (b[i] * a[j] + a[i] * b[j]) / 2
                   - g1 * r * tau * (ev[i] * a[j] + a[i] * ev[j]) / 2
                   for j in range(3)] for i in range(3)]
            phi = [[0, 1, 0], [0, 0, 1], [-k2 / tau, -beta * k2 / tau, -1 / tau]]
            dm = [[-sum(phi[m][i] * ml[m][j] + ml[i][m] * phi[m][j] for m in range(3))
                   for j in range(3)] for i in range(3)]
            ratio_lo, ratio_hi = _mp_pencil_extremes(mp, ml, me)
            lo, hi = min(lo, ratio_lo), max(hi, ratio_hi)
            rml = [[r * x for x in row] for row in ml]
            g5 = min(g5, _mp_pencil_extremes(mp, dm, rml)[0])
        return float(g5), float(lo), float(hi)


def _weight_points():
    rng = np.random.default_rng(2026)
    pts = [validate(r, 1.0) for r in ((1.0 - 1e-9) / 9.0, 0.9999, 1e-4)]
    for _ in range(12):
        beta = float(rng.uniform(0.2, 5.0))
        pts.append(validate(float(rng.uniform(0.01, 0.99)) * beta, beta))
    return pts


class TestWeightsAgainstMpmath:
    """Against 40-digit mpmath at every frequency of the grid, near-conservative
    (0.9999, 1), near-critical and tiny tau/beta included."""

    def test_default_weights_match_mpmath(self):
        for p in _weight_points():
            w = default_weights(p)
            g5 = _mp_weight_reference(p, w, _DEFAULT_K_GRID)[0]
            # L/E is widest at k = 1, where k/(1 + k^2) peaks
            _, lo, hi = _mp_weight_reference(p, w, [1.0])
            got = (w.gamma5, w.equiv_lo, w.equiv_hi)
            ref = (0.999 * g5, lo, hi)
            for name, g, r in zip(("gamma5", "equiv_lo", "equiv_hi"), got, ref):
                assert abs(g - r) <= 1e-13 * abs(r), (p, name, g, r)

    def test_decay_margin_exact_matches_mpmath(self):
        ks = np.geomspace(0.05, 50.0, 10)
        for p in _weight_points():
            w = default_weights(p)
            ref = _mp_weight_reference(p, w, ks)[0]
            got = decay_margin_exact(p, w, ks)
            assert abs(got - ref) <= 1e-13 * abs(ref), (p, got, ref)


class TestLapackFree:
    """The constants come from closed forms, a Newton iteration and LDL^T
    pivots: no numpy.linalg call on the way to them or to `mgt mode`."""

    @pytest.fixture
    def no_linalg(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.linalg was called")

        for name in ("cholesky", "solve", "eigvalsh", "eigh", "eig", "inv"):
            monkeypatch.setattr(np.linalg, name, refuse)

    def test_weights_margin_and_mode_command(self, no_linalg, capsys):
        from mgt_spectral.cli import main

        w = default_weights(validate(0.9999, 1.0))
        assert decay_margin_exact(validate(0.9999, 1.0), w) > 0.0
        assert main(["mode", "--tau", "0.9999", "--beta", "1", "--t-count", "3"]) == 0
        rows = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
        assert len(rows) == 4  # the column header and three times

    @pytest.mark.parametrize("tau, beta", [(0.1, 1.0), (0.9999, 1.0), (1e-4, 1.0)])
    def test_inertia_brackets_the_unwidened_margin(self, tau, beta):
        # negative control: 1e-9 above the grid minimum some pivot is not positive
        p = validate(tau, beta)
        w = default_weights(p)
        g5 = decay_margin_exact(p, w)
        pencil = lyapunov._decay_pencil(p, _DEFAULT_K_GRID, w.gamma0, w.gamma1)
        assert lyapunov._positive_definite(*pencil, g5 * (1.0 - 1e-9)).all()
        assert not lyapunov._positive_definite(*pencil, g5 * (1.0 + 1e-9)).all()

    def test_unconverged_newton_fails_the_certificate(self, monkeypatch):
        monkeypatch.setattr(lyapunov, "_NEWTON_STEPS", 2)
        with pytest.raises(NonPositiveMargin, match="inertia check"):
            default_weights(P)


class TestNonPositiveMarginIsTyped:
    def test_indefinite_lyapunov_form_names_the_first_frequency(self):
        # gamma0 = 0.1 < sigma/2: L is indefinite around k = 1
        w = dataclasses.replace(default_weights(P), gamma0=0.1)
        sigma = math.sqrt(1.0 + 16.0 * P.tau / (P.beta - P.tau))
        first = next(k for k in _DEFAULT_K_GRID if 0.1 - sigma * k / (1.0 + k * k) <= 0.0)
        with pytest.raises(NonPositiveMargin, match=f"not positive definite.*k={first:.6g}$"):
            decay_margin_exact(P, w)

    def test_no_positive_margin_names_the_first_frequency(self):
        # gamma0 = 1 keeps L definite but leaves dL/dt > 0 for some low-k states
        w = dataclasses.replace(default_weights(P), gamma0=1.0)
        with pytest.raises(NonPositiveMargin, match="no positive decay margin at k=0.001$"):
            decay_margin_exact(P, w)


class TestEmptyPositiveGrid:
    def test_margin_rejects_a_grid_without_positive_frequency(self):
        with pytest.raises(EmptyInput):
            decay_margin_exact(P, default_weights(P), k_grid=[0.0])


class TestInvalidFrequencies:
    """A negative or non-finite frequency is rejected before any arithmetic; k = 0 is skipped."""

    def test_zero_frequency_still_skipped(self):
        w = default_weights(P)
        assert decay_margin_exact(P, w, [0.0, 1.0, 2.0]) == decay_margin_exact(P, w, [1.0, 2.0])
