import math

import numpy as np
import pytest

from mgt_spectral import (GridError, InvalidFrequency, Labeling, RootPattern,
                          asymptotic_large_k, asymptotic_small_k, atlas, atlas_rows,
                          characteristic_residual, classify, eigenvalues, validate)

P = validate(0.1, 1.0)
P_CRIT = validate(1.0 / 9.0, 1.0)
P_SUPER = validate(0.5, 1.0)


def oracle_roots(p, k):
    """Independent companion-matrix root oracle."""
    return np.roots([p.tau, 1.0, p.beta * k * k, k * k])


def match_sets(a, b, tol):
    a = sorted(a, key=lambda z: (z.real, z.imag))
    b = sorted(b, key=lambda z: (z.real, z.imag))
    return max(abs(x - y) for x, y in zip(a, b)) <= tol


class TestEigenvalues:
    def test_zero_frequency(self):
        pt = eigenvalues(P, 0.0)
        assert pt.pattern is RootPattern.REAL_WITH_DOUBLE
        assert pt.lambdas[0] == pytest.approx(-10.0)
        assert pt.lambdas[1] == 0.0 and pt.lambdas[2] == 0.0

    def test_triple_root(self):
        pt = eigenvalues(P_CRIT, math.sqrt(3.0))
        assert pt.pattern is RootPattern.TRIPLE_REAL
        for lam in pt.lambdas:
            assert lam == pytest.approx(-3.0, abs=1e-10)

    def test_k1_matches_companion_oracle(self):
        pt = eigenvalues(P, 1.0)
        assert pt.pattern is RootPattern.REAL_PLUS_PAIR
        assert pt.lambdas[0].real == pytest.approx(-9.013655172197716, rel=1e-12)
        assert pt.lambdas[1] == pytest.approx(-0.49317241390113686 + 0.9307033960808754j, rel=1e-12)
        assert -10.0 < pt.lambdas[0].real < -1.0
        assert -4.5 < pt.lambdas[1].real < 0.0
        assert match_sets(pt.lambdas, oracle_roots(P, 1.0), 1e-10)

    def test_double_root_boundaries(self):
        pt1 = eigenvalues(P, math.sqrt(3.125))
        assert pt1.pattern is RootPattern.REAL_WITH_DOUBLE
        assert sorted(z.real for z in pt1.lambdas) == pytest.approx([-5.0, -2.5, -2.5], rel=1e-9)
        pt2 = eigenvalues(P, math.sqrt(3.2))
        assert pt2.pattern is RootPattern.REAL_WITH_DOUBLE
        assert sorted(z.real for z in pt2.lambdas) == pytest.approx([-4.0, -4.0, -2.0], rel=1e-9)

    def test_conjugacy_exact(self):
        pt = eigenvalues(P, 0.3)
        assert pt.lambdas[2] == pt.lambdas[1].conjugate()
        assert pt.lambdas[1].imag >= 0.0

    def test_rejects_bad_frequency(self):
        with pytest.raises(InvalidFrequency):
            eigenvalues(P, -1.0)
        with pytest.raises(InvalidFrequency):
            eigenvalues(P, float("nan"))


class TestClassify:
    def test_windows(self):
        assert classify(P, 1.78) is RootPattern.THREE_DISTINCT_REAL   # k^2 = 3.1684
        assert classify(P, 1.8) is RootPattern.REAL_PLUS_PAIR         # k^2 = 3.24 > m2
        assert classify(P, 1.0) is RootPattern.REAL_PLUS_PAIR
        assert classify(P, 10.0) is RootPattern.REAL_PLUS_PAIR

    def test_supercritical_always_pair(self):
        for k in (1e-3, 0.5, 5.0, 100.0):
            assert classify(P_SUPER, k) is RootPattern.REAL_PLUS_PAIR

    def test_boundaries(self):
        assert classify(P, 0.0) is RootPattern.REAL_WITH_DOUBLE
        assert classify(P, math.sqrt(3.125)) is RootPattern.REAL_WITH_DOUBLE
        assert classify(P_CRIT, math.sqrt(3.0)) is RootPattern.TRIPLE_REAL
        assert classify(P_CRIT, 1.0) is RootPattern.REAL_PLUS_PAIR


class TestRandomSweep:
    def test_residuals_vieta_bounds(self):
        rng = np.random.default_rng(123)
        n = 1500
        for _ in range(n):
            beta = rng.uniform(0.1, 2.0)
            tau = rng.uniform(1e-3, beta * 0.999)
            p = validate(tau, beta)
            k = rng.uniform(0.0, 100.0)
            pt = eigenvalues(p, k)
            lams = np.array(pt.lambdas)
            for lam in lams:
                r, s = characteristic_residual(p, lam, k)
                assert r <= 1e-9 * s
            k2 = k * k
            assert abs(lams.sum() + 1.0 / tau) <= 1e-9 * (1.0 / tau)
            e2 = lams[0] * lams[1] + lams[0] * lams[2] + lams[1] * lams[2]
            assert abs(e2 - beta * k2 / tau) <= 1e-9 * max(1.0, beta * k2 / tau)
            assert abs(lams.prod() + k2 / tau) <= 1e-9 * max(1.0, k2 / tau)
            if k > 0.0:
                # real roots inside (-1/tau, -1/beta); pair real parts inside
                # (-(1/tau - 1/beta)/2, 0); nothing on the imaginary axis
                for lam in lams:
                    if lam.imag == 0.0:
                        assert -1.0 / tau < lam.real < -1.0 / beta
                    else:
                        assert -0.5 * (1.0 / tau - 1.0 / beta) < lam.real < 0.0
                assert np.min(np.abs(lams.real)) > 1e-10

    def test_matches_companion_oracle(self):
        rng = np.random.default_rng(99)
        for _ in range(300):
            beta = rng.uniform(0.1, 2.0)
            tau = rng.uniform(1e-2, beta * 0.99)
            p = validate(tau, beta)
            k = rng.uniform(0.0, 50.0)
            pt = eigenvalues(p, k)
            assert match_sets(pt.lambdas, oracle_roots(p, k), 1e-7 * max(1.0, 1.0 / tau))


class TestAsymptotics:
    def test_small_k_base_point(self):
        tr = asymptotic_small_k(P, 0.0)
        assert tr.lambdas_approx[0] == pytest.approx(-10.0)
        assert tr.lambdas_approx[1] == 0.0

    def test_small_k_values(self):
        tr = asymptotic_small_k(P, 0.01)
        assert tr.lambdas_approx[1] == pytest.approx(0.01j - 0.45e-4, rel=1e-12)

    def test_small_k_third_order_pair(self):
        errs = []
        for k in (0.02, 0.01):
            exact = eigenvalues(P, k).lambdas[1]
            approx = asymptotic_small_k(P, k).lambdas_approx[1]
            errs.append(abs(exact - approx))
        ratio = errs[0] / errs[1]
        assert 6.0 < ratio < 10.0  # O(k^3) truncation error

    def test_large_k_values(self):
        tr = asymptotic_large_k(P, 1e3)
        assert tr.lambdas_approx[0] == pytest.approx(-1.0)
        assert tr.lambdas_approx[1].real == pytest.approx(-4.5)
        assert tr.lambdas_approx[1].imag == pytest.approx(1e3 * math.sqrt(10.0))
        tr2 = asymptotic_large_k(validate(0.5, 1.0), 1e3)
        assert tr2.lambdas_approx[1].imag == pytest.approx(1e3 * math.sqrt(2.0))

    def test_large_k_accuracy(self):
        ex = eigenvalues(P, 1e3)
        ap = asymptotic_large_k(P, 1e3)
        assert abs(ex.lambdas[0].real - (-1.0)) < 1e-3
        assert abs(ex.lambdas[1].real - (-4.5)) < 1e-3

    def test_large_k_first_order_overall(self):
        # overall error is O(1/k): halves when k doubles (dominated by Im);
        # the real parts converge one order faster
        errs, re_errs = [], []
        for k in (1e3, 2e3):
            ex = np.array(eigenvalues(P, k).lambdas)
            ap = np.array(asymptotic_large_k(P, k).lambdas_approx)
            errs.append(np.abs(ex - ap).max())
            re_errs.append(abs(ex[0].real - ap[0].real))
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.1)
        assert re_errs[0] / re_errs[1] == pytest.approx(4.0, rel=0.2)

    def test_large_k_rejects_zero(self):
        with pytest.raises(InvalidFrequency):
            asymptotic_large_k(P, 0.0)


class TestAtlas:
    def test_supercritical_tracks(self):
        pts = atlas(P_SUPER, [0.0, 0.5, 1.0])
        assert pts[0].lambdas[0] == pytest.approx(-2.0)
        assert pts[0].lambdas[1] == 0.0
        assert all(pt.labeling is Labeling.BRANCH_CONTINUOUS for pt in pts)
        # the branch starting at -1/tau stays real
        assert all(abs(pt.lambdas[0].imag) == 0.0 for pt in pts)
        # the branch starting at 0 keeps Im >= 0
        assert all(pt.lambdas[1].imag >= 0.0 for pt in pts)

    def test_pair_collision_across_m1(self):
        ks = np.linspace(1.70, 1.80, 101)  # straddles sqrt(m1) ~ 1.7678
        pts = atlas(P, ks)
        im_start = abs(pts[0].lambdas[1].imag)
        assert im_start > 0.0
        sep = [abs(pt.lambdas[1] - pt.lambdas[2]) for pt in pts]
        patterns = [pt.pattern for pt in pts]
        assert RootPattern.THREE_DISTINCT_REAL in patterns
        # pair collides onto the real axis inside the window
        idx = patterns.index(RootPattern.THREE_DISTINCT_REAL)
        assert all(abs(pt.lambdas[i].imag) == 0.0 for pt in pts[idx:idx + 1] for i in range(3))
        assert sep[0] > 0 and min(sep) < sep[0]

    def test_branch_continuity(self):
        ks = np.linspace(0.0, 3.0, 301)
        pts = atlas(P, ks)
        arr = np.array([pt.lambdas for pt in pts])
        jumps = np.abs(np.diff(arr, axis=0)).max(axis=1)
        # away from the collision windows the branches are smooth; near the
        # thresholds the physical root velocity is unbounded (square-root law)
        mids = 0.5 * (ks[:-1] + ks[1:])
        smooth = (mids < 1.7) | (mids > 1.85)
        assert jumps[smooth].max() < 0.25
        assert jumps.max() < 1.0  # even through the collisions, no label swaps

    def test_monotone_pair_real_part(self):
        ks = np.linspace(0.1, 1.5, 60)
        pts = atlas(P, ks)
        re2 = np.array([pt.lambdas[1].real for pt in pts])
        assert np.all(np.diff(re2) < 0.0)

    def test_grid_validation(self):
        with pytest.raises(GridError):
            atlas(P, [1.0, 0.5])
        with pytest.raises(GridError):
            atlas(P, [-1.0, 0.5])
        with pytest.raises(GridError):
            atlas(P, [])

    def test_rows_serialization(self):
        pts = atlas(P, [0.0, 1.0])
        rows = atlas_rows(pts)
        assert rows[0][0] == 0.0
        assert rows[0][7] == "RealWithDouble"
        assert len(rows[0]) == 8


class TestPermutationAgreement:
    def test_atlas_matches_pointwise(self):
        ks = np.linspace(0.0, 4.0, 37)
        pts = atlas(P, ks)
        for pt in pts:
            ref = eigenvalues(P, pt.k)
            assert match_sets(pt.lambdas, ref.lambdas, 1e-12)
            assert pt.pattern == ref.pattern


def _mp_roots(tau, beta, k):
    """The three roots by 80-digit mpmath, independent of the closed form."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(80):
        k2 = mp.mpf(k) ** 2
        roots = mp.polyroots([mp.mpf(tau), 1, mp.mpf(beta) * k2, k2],
                             maxsteps=200, extraprec=300)
        return [complex(z) for z in roots]


def _pair_reference(tau, beta, k):
    """The upper conjugate-pair root by 80-digit mpmath."""
    return max(_mp_roots(tau, beta, k), key=lambda z: z.imag)


class TestPairFromVieta:
    """The pair is taken from the quadratic factor left by the real root, so its
    O(1) real part survives next to an O(k) imaginary part at large k, and its
    O(k) imaginary part next to the O(1/tau) real root at small k; at small k
    it is a pair, never three real roots."""

    CASES = [(0.1, 1.0), (0.3, 0.5), (0.9, 1.25)]

    @pytest.mark.parametrize("tau, beta", CASES)
    def test_large_k_real_part(self, tau, beta):
        p = validate(tau, beta)
        for k in np.geomspace(1e3, 3.1e50, 30):
            lam2 = eigenvalues(p, float(k)).lambdas[1]
            ref = _pair_reference(tau, beta, k)
            assert lam2.real < 0.0
            assert abs(lam2.real - ref.real) <= 1e-12 * abs(ref.real), k

    @pytest.mark.parametrize("tau, beta", CASES)
    def test_small_k_pair(self, tau, beta):
        p = validate(tau, beta)
        for k in np.geomspace(1e-9, 1e-3, 13):
            lam2 = eigenvalues(p, float(k)).lambdas[1]
            ref = _pair_reference(tau, beta, k)
            assert lam2.real < 0.0
            assert abs(lam2 - ref) <= 1e-12 * abs(ref), k
            assert abs(lam2.real - ref.real) <= 1e-12 * abs(ref.real), k

    def test_random_domain(self):
        # every root, real and imaginary parts apart, over the whole domain:
        # log-uniform k from 1e-10 to 1e20, a third of the draws sub-critical
        rng = np.random.default_rng(71)
        for i in range(200):
            tau = rng.uniform(0.01, 0.95)
            beta = rng.uniform(1.05 * tau, 2.0)
            if i % 3 == 0:
                tau = beta * rng.uniform(0.005, 0.11)
            k = 10.0 ** rng.uniform(-10.0, 20.0)
            got = sorted(eigenvalues(validate(tau, beta), k).lambdas,
                         key=lambda z: (z.real, z.imag))
            ref = sorted(_mp_roots(tau, beta, k), key=lambda z: (z.real, z.imag))
            for g, r in zip(got, ref):
                assert g.real < 0.0
                assert abs(g.real - r.real) <= 1e-12 * abs(r.real), (tau, beta, k)
                assert abs(g.imag - r.imag) <= 1e-12 * max(abs(r.imag), abs(r.real)), (tau, beta, k)
