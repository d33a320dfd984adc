"""Acceptance suite: every numbered criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from mgt_spectral import (FrequencyProfile, ModeState, RootPattern, characteristic_residual,
                          cardano_thresholds, decay_curve, default_weights, eigenvalues,
                          energy_dissipation_residual, fit_decay_slope, functionals,
                          gronwall_margin, integral_lemma_check, pointwise_bound_constants,
                          propagate_numeric, region_contributions, region_rates, rho,
                          sobolev_norm_sq, solve_mode, v_norm_sq, v_vector, validate)
from mgt_spectral.params import ModelParams
from mgt_spectral.spectrum import _spectrum

P = validate(0.1, 1.0)
GAUSS = FrequencyProfile.gaussian()
ZERO = FrequencyProfile.zero()
MF = FrequencyProfile.moment_free()


@contextmanager
def criterion(num, desc):
    try:
        yield
    except Exception:
        print(f"[criterion {num:2d}] FAIL {desc}")
        raise
    print(f"[criterion {num:2d}] PASS {desc}")


def cubic_discriminant(tau, beta, m):
    a, b, c, d = tau, 1.0, beta * m, m
    return (18 * a * b * c * d - 4 * b**3 * d + b * b * c * c
            - 4 * a * c**3 - 27 * a * a * d * d)


def random_state(rng, k):
    return ModeState(*(rng.standard_normal(3) + 1j * rng.standard_normal(3)), k=float(k))


def test_criterion_01_cardano_thresholds():
    with criterion(1, "Cardano thresholds and double roots at tau=0.1, beta=1"):
        thr = cardano_thresholds(P)
        assert abs(thr.c1 + 253.0) <= 1e-12 * 253.0
        assert abs(thr.c2 - 9.0) <= 1e-12 * 9.0
        assert abs(thr.m1 - 3.125) <= 1e-12 * 3.125
        assert abs(thr.m2 - 3.2) <= 1e-12 * 3.2
        for m in (thr.m1, thr.m2):
            # discriminant vanishes at the threshold ...
            a, b, c, d = P.tau, 1.0, P.beta * m, m
            disc_scale = (18 * a * b * c * d + 4 * b**3 * d + b * b * c * c
                          + 4 * a * c**3 + 27 * a * a * d * d)
            assert abs(cubic_discriminant(P.tau, P.beta, m)) <= 1e-8 * disc_scale
            # ... and the returned double root has small residual in p and p'
            pt = eigenvalues(P, math.sqrt(m))
            assert pt.pattern is RootPattern.REAL_WITH_DOUBLE
            lams = sorted(z.real for z in pt.lambdas)
            lam_d = lams[1] if abs(lams[1] - lams[0]) < abs(lams[2] - lams[1]) else lams[1]
            res, scale = characteristic_residual(P, lam_d, math.sqrt(m))
            assert res <= 1e-8 * scale
            dres = abs(3 * a * lam_d**2 + 2 * lam_d + c)
            assert dres <= 1e-8 * (3 * a * lam_d**2 + 2 * abs(lam_d) + c)


def test_criterion_02_triple_root():
    with criterion(2, "triple root -3 at tau=1/9, beta=1, k=sqrt(3)"):
        p = validate(1.0 / 9.0, 1.0)
        thr = cardano_thresholds(p)
        assert abs(thr.m1 - 3.0) <= 1e-10
        assert abs(thr.m2 - 3.0) <= 1e-10
        pt = eigenvalues(p, math.sqrt(3.0))
        assert pt.pattern is RootPattern.TRIPLE_REAL
        for lam in pt.lambdas:
            assert abs(lam - (-3.0)) <= 1e-10


def test_criterion_03_spectrum_sweep():
    with criterion(3, "10^4-sample spectrum sweep: residuals, Vieta, bounds, axis gap"):
        rng = np.random.default_rng(1003)
        n = 10_000
        betas = rng.uniform(0.05, 2.0, n)
        taus = betas * rng.uniform(1e-3, 0.999, n)
        ks = rng.uniform(0.0, 100.0, n)
        for tau, beta in zip(taus, betas):
            validate(tau, beta)
        # one routed root call over all draws, each row with its own (tau, beta)
        lams, _ = _spectrum(ModelParams(taus, betas), ks * ks)
        for tau, beta, k, row in zip(taus[:200], betas[:200], ks[:200], lams):
            # the public scalar path returns the batched row bit for bit
            assert np.array(eigenvalues(validate(tau, beta), k).lambdas).tobytes() == row.tobytes()
        tau, beta, k2 = taus[:, None], betas[:, None], (ks * ks)[:, None]
        r, s = characteristic_residual(ModelParams(tau, beta), lams, ks[:, None])
        assert np.all(r <= 1e-9 * s)
        l1, l2, l3 = lams.T[:, :, None]
        assert np.all(abs(l1 + l2 + l3 + 1.0 / tau) <= 1e-9 * (1.0 / tau))
        e2 = l1 * l2 + l1 * l3 + l2 * l3
        assert np.all(abs(e2 - beta * k2 / tau) <= 1e-9 * np.maximum(1.0, beta * k2 / tau))
        assert np.all(abs(l1 * l2 * l3 + k2 / tau) <= 1e-9 * np.maximum(1.0, k2 / tau))
        pos = ks > 0.0
        re, real = lams.real[pos], lams.imag[pos] == 0.0
        tau, beta = tau[pos], beta[pos]
        assert np.all(np.where(real, (-1.0 / tau < re) & (re < -1.0 / beta),
                               (-0.5 * (1.0 / tau - 1.0 / beta) < re) & (re < 0.0)))
        assert np.all(np.min(np.abs(re), axis=1) > 1e-10)


def test_criterion_04_oracle_equivalence():
    with criterion(4, "200-case closed-form vs matrix-exponential oracle, semigroup"):
        rng = np.random.default_rng(1004)
        for _ in range(200):
            beta = rng.uniform(0.5, 2.0)
            tau = beta * rng.uniform(0.05, 0.95)
            p = validate(tau, beta)
            k = rng.uniform(0.0, 50.0)
            t = rng.uniform(0.0, 20.0)
            init = random_state(rng, k)
            a = solve_mode(p, init, float(t))
            b = propagate_numeric(p, init, float(t))
            assert np.abs(a.as_array() - b.as_array()).max() <= 1e-6 * (1.0 + init.norm())
            # semigroup split at a random intermediate time
            t1 = float(t) * rng.uniform(0.2, 0.8)
            stepped = solve_mode(p, solve_mode(p, init, t1),
                                 float(t) - t1)
            assert (np.abs(a.as_array() - stepped.as_array()).max()
                    <= 1e-8 * (1.0 + a.norm() + init.norm()))


def test_criterion_05_energy_identity():
    with criterion(5, "energy dissipation identity across all four root patterns"):
        rng = np.random.default_rng(1005)
        p_crit = validate(1.0 / 9.0, 1.0)
        cases = [(P, 1.0), (P, 1.78), (P, math.sqrt(3.125)), (P, math.sqrt(3.2)),
                 (P, 0.0), (p_crit, math.sqrt(3.0))]
        while len(cases) < 50:
            beta = rng.uniform(0.2, 2.0)
            tau = beta * rng.uniform(0.02, 0.98)
            cases.append((validate(tau, beta), float(rng.uniform(0.0, 30.0))))
        for p, k in cases:
            init = random_state(rng, k)
            for t in rng.uniform(0.0, 10.0, 10):
                res, scale = energy_dissipation_residual(p, init, float(t))
                assert res <= 1e-9 * scale


def test_criterion_06_gronwall_margin():
    with criterion(6, "gamma5 > 0, weighted monotonicity, pointwise V bound"):
        rng = np.random.default_rng(1006)
        pairs = [P]
        while len(pairs) < 11:
            beta = rng.uniform(0.3, 2.0)
            tau = beta * rng.uniform(0.02, 0.98)
            pairs.append(validate(tau, beta))
        for p in pairs:
            w = default_weights(p)
            samples = [random_state(rng, 1.0) for _ in range(3)]
            g5 = gronwall_margin(p, w, np.geomspace(0.05, 40.0, 8), samples)
            assert g5 > 0.0 and w.gamma5 > 0.0
            # fresh trajectories: L(t) exp(gamma5 rho t) nonincreasing
            for k in (0.2, 1.0, 8.0):
                init = random_state(rng, k)
                r = float(rho(k))
                prev = None
                for t in np.linspace(0.0, 15.0, 61):
                    val = (functionals(p, solve_mode(p, init, float(t)), w).lyap
                           * math.exp(w.gamma5 * r * float(t)))
                    if prev is not None:
                        assert val <= prev * (1.0 + 1e-8) + 1e-300
                    prev = val
        # pointwise bound with the measured constant on a (k, t) mesh
        w = default_weights(P)
        C, c = pointwise_bound_constants(P, w)
        for k in np.geomspace(0.05, 60.0, 12):
            init = random_state(rng, k)
            v0 = v_vector(P, init).norm_sq
            for t in (0.5, 2.0, 8.0, 20.0):
                vt = v_vector(P, solve_mode(P, init, t)).norm_sq
                assert vt <= C * math.exp(-c * float(rho(k)) * t) * v0 * (1.0 + 1e-9)


def test_criterion_07_integral_lemma_suite():
    with criterion(7, "kernel inequality ratios bounded; sharp sine constant"):
        tgrid = np.concatenate([[0.0], np.geomspace(1e-2, 1e4, 29)])
        for dim, j in [(1, 0), (2, 0), (3, 0), (1, 2), (2, 1)]:
            rep = integral_lemma_check(dim, j, 1.0, tgrid)
            for name, s in rep.series.items():
                assert np.isfinite(s.max_ratio)
                assert s.check.passed, name
            if dim + j >= 3:
                s = rep.series["sine_global"]
                # never exceeds the bound constant (1/2) Gamma((dim+j-2)/2) ...
                assert s.max_ratio <= rep.sine_global_bound_constant * (1 + 1e-9)
        # ... and for (3, 0) the large-t ratio settles at the sharp value
        # sqrt(pi)/4, half the bound constant sqrt(pi)/2, within 5%
        rep = integral_lemma_check(3, 0, 1.0, tgrid)
        s = rep.series["sine_global"]
        assert rep.sine_global_bound_constant == pytest.approx(math.sqrt(math.pi) / 2.0)
        late = s.ratios[s.times >= 1e2]
        assert np.all(np.abs(late - math.sqrt(math.pi) / 4.0)
                      <= 0.05 * math.sqrt(math.pi) / 4.0)


def test_criterion_08_theorem_bound_dim3():
    with criterion(8, "dim=3 slope -0.25 +- 0.03 for data in the second derivative"):
        tg = np.geomspace(1e2, 1e4, 25)
        curve = decay_curve(P, (ZERO, ZERO, GAUSS), 3, 0, tg, 1e-10)
        slope = fit_decay_slope(curve.times, curve.values)
        assert abs(slope + 0.25) <= 0.03
        assert curve.bound_exponent == pytest.approx(-0.25)
        print(f"    measured dim=3 slope: {slope:+.4f} (bound exponent -0.25)")


def test_criterion_09_theorem_bound_dim1():
    with criterion(9, "dim=1 norm within measured constant times (1+t)^(3/4)"):
        tg = np.geomspace(1e2, 1e4, 25)
        curve = decay_curve(P, (ZERO, GAUSS, ZERO), 1, 0, tg, 1e-8)
        shape = (1.0 + curve.times) ** 0.75
        n2 = tg.size // 2
        c_early = float(np.max(curve.values[:n2] / shape[:n2]))
        assert np.all(curve.values <= 1.01 * c_early * shape)
        slope = curve.fitted_slope
        assert slope <= 0.75 + 0.03
        # observation only (sharp rate undershoots the theorem exponent)
        print(f"    measured dim=1 slope: {slope:+.4f} (bound exponent +0.75)")


def test_criterion_10_weighted_data_theorem():
    with criterion(10, "weighted data slopes within -dim/4 + 0.03 for dim in {1, 2}"):
        tg = np.geomspace(1e2, 1e4, 25)
        for dim in (1, 2):
            curve = decay_curve(P, (GAUSS, MF, MF), dim, 0, tg, 1e-10)
            assert curve.bound_exponent == pytest.approx(-dim / 4.0)
            assert curve.fitted_slope <= -dim / 4.0 + 0.03
            print(f"    measured weighted dim={dim} slope: {curve.fitted_slope:+.4f} "
                  f"(bound exponent {-dim / 4.0:+.2f})")


def test_criterion_11_v_norm_theorem():
    with criterion(11, "energy-vector norm within (1+t)^(-1/2 - j/2) for j in {0, 1}"):
        data = (GAUSS, GAUSS, GAUSS)
        c3, _ = region_rates(P)
        v0 = math.sqrt(v_norm_sq(P, data, 2, 0, 0.0, 1e-10))
        tg = np.geomspace(1e2, 1e4, 13)
        for j in (0, 1):
            alpha = -0.5 - j / 2.0
            curve = decay_curve(P, data, 2, j, tg, 1e-10, v_norm=True)
            shape = (1.0 + curve.times) ** alpha
            n2 = tg.size // 2
            c_early = float(np.max(curve.values[:n2] / shape[:n2]))
            remainder = v0 * np.exp(-c3 * curve.times)
            assert np.all(curve.values <= 1.01 * c_early * shape + remainder)
            assert curve.fitted_slope <= alpha + 0.05
            print(f"    measured V-norm dim=2 j={j} slope: {curve.fitted_slope:+.4f} "
                  f"(bound exponent {alpha:+.2f})")


def test_criterion_12_region_diagnostics():
    with criterion(12, "mid/high regions decay at exp(-2 min(c3,c4) t); regions sum"):
        data = (GAUSS, GAUSS, GAUSS)
        c3, c4 = region_rates(P)
        cmin = min(c3, c4)
        tol = 1e-12
        rc0 = region_contributions(P, data, 2, 0, 0.0, quad_tol=tol)
        # the early window must cover the cos^2 modulation of the mid trace
        # (period ~ pi / Im(lambda(nu1)) ~ 6) so the constant catches its peak
        early, late = (3.0, 5.0, 7.0, 9.0, 11.0, 13.0, 15.0), (20.0, 30.0, 40.0, 60.0)
        cm = max(region_contributions(P, data, 2, 0, t, quad_tol=tol).mid
                 / (math.exp(-2 * cmin * t) * rc0.mid) for t in early)
        ch = max(region_contributions(P, data, 2, 0, t, quad_tol=tol).high
                 / (math.exp(-2 * cmin * t) * rc0.high) for t in early)
        for t in late:
            rc = region_contributions(P, data, 2, 0, t, quad_tol=tol)
            decay_factor = math.exp(-2 * cmin * t)
            assert rc.mid <= 1.05 * cm * decay_factor * rc0.mid + 4 * tol
            assert rc.high <= 1.05 * ch * decay_factor * rc0.high + 4 * tol
        for t in (0.0, 1.0, 10.0, 40.0):
            rc = region_contributions(P, data, 2, 0, t, quad_tol=tol)
            total = sobolev_norm_sq(P, data, 2, 0, t, tol)
            assert abs(rc.low + rc.mid + rc.high - total) <= 2.0 * tol
