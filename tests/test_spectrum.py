import math
import re
from fractions import Fraction

import numpy as np
import pytest

from mgt_spectral import (EmptyInput, GridError, InvalidFrequency, ModelParams, RootPattern,
                          asymptotic_large_k, asymptotic_small_k, atlas, atlas_rows,
                          cardano_thresholds, characteristic_residual, eigenvalues, mode_matrix,
                          solve_modes_on_grid, spectrum, validate)
from mgt_spectral.params import CRITICAL_RATIO, TOL_CRITICAL

P = validate(0.1, 1.0)
#: Scales s of the symmetry (tau, beta, k) -> (s tau, s beta, k / s): roots become lam / s.
SCALES = (1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9)
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


class TestPattern:
    def test_windows(self):
        assert eigenvalues(P, 1.78).pattern is RootPattern.THREE_DISTINCT_REAL   # k^2 = 3.1684
        assert eigenvalues(P, 1.8).pattern is RootPattern.REAL_PLUS_PAIR         # k^2 = 3.24 > m2
        assert eigenvalues(P, 1.0).pattern is RootPattern.REAL_PLUS_PAIR
        assert eigenvalues(P, 10.0).pattern is RootPattern.REAL_PLUS_PAIR

    def test_supercritical_always_pair(self):
        for k in (1e-3, 0.5, 5.0, 100.0):
            assert eigenvalues(P_SUPER, k).pattern is RootPattern.REAL_PLUS_PAIR

    def test_boundaries(self):
        assert eigenvalues(P, 0.0).pattern is RootPattern.REAL_WITH_DOUBLE
        assert eigenvalues(P, math.sqrt(3.125)).pattern is RootPattern.REAL_WITH_DOUBLE
        assert eigenvalues(P_CRIT, math.sqrt(3.0)).pattern is RootPattern.TRIPLE_REAL
        assert eigenvalues(P_CRIT, 1.0).pattern is RootPattern.REAL_PLUS_PAIR


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


def _worst_residual(beta_over_tau):
    """The largest relative root residual of _spectrum at beta = 1 over
    k = (1e-3 ... 1e3)/sqrt(tau beta), 401 points."""
    p = validate(1.0 / beta_over_tau, 1.0)
    ks = np.geomspace(1e-3, 1e3, 401) / math.sqrt(p.tau * p.beta)
    lams, _ = spectrum._spectrum(p, ks * ks)
    r, s = characteristic_residual(p, lams, ks[:, None])
    return float(np.max(r / s))


class TestLargeStiffnessRatio:
    """At large beta/tau a three-real row's factor holds two far-apart roots,
    e.g. (-1.28e16, -1) at (1e-20, 1, 1.13e8), whose sum alpha + sqrt(q)
    cancels; the near root is taken from the factor's product instead."""

    RATIOS = [10.0**e for e in range(4, 21)]

    @pytest.mark.parametrize("ratio", RATIOS)
    def test_every_root_meets_the_residual_budget(self, ratio):
        assert _worst_residual(ratio) <= spectrum.TOL_RESIDUAL

    def test_the_sum_form_misses_it(self, monkeypatch):
        # negative control: alpha + sqrt(q) for the near root
        monkeypatch.setattr(spectrum, "_upper_root",
                            lambda c, lam, alpha, q: alpha + np.sqrt(np.maximum(q, 0.0)))
        assert max(_worst_residual(r) for r in self.RATIOS) > spectrum.TOL_RESIDUAL

    def test_no_zero_root(self):
        # p(0) = k^2 != 0
        lambdas = eigenvalues(validate(1e-20, 1.0), 1.13e8).lambdas
        assert lambdas[2] == pytest.approx(-1.0, rel=1e-12)
        assert all(z != 0.0 for z in lambdas)


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
        # a bad entry breaks the one frequency rule (tests/test_input_contract.py)
        with pytest.raises(GridError, match="ascending"):
            atlas(P, [1.0, 0.5])
        with pytest.raises(EmptyInput, match="^empty frequency grid$"):
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
        # log-uniform k from 1e-10 to 1e20, a third of the draws sub-critical,
        # each draw at one of SCALES as (s tau, s beta, k / s)
        rng = np.random.default_rng(71)
        for i in range(200):
            tau = rng.uniform(0.01, 0.95)
            beta = rng.uniform(1.05 * tau, 2.0)
            if i % 3 == 0:
                tau = beta * rng.uniform(0.005, 0.11)
            k = 10.0 ** rng.uniform(-10.0, 20.0)
            s = rng.choice(SCALES)
            tau, beta, k = s * tau, s * beta, k / s
            got = sorted(eigenvalues(validate(tau, beta), k).lambdas,
                         key=lambda z: (z.real, z.imag))
            ref = sorted(_mp_roots(tau, beta, k), key=lambda z: (z.real, z.imag))
            for g, r in zip(got, ref):
                assert g.real < 0.0
                assert abs(g.real - r.real) <= 1e-12 * abs(r.real), (tau, beta, k)
                assert abs(g.imag - r.imag) <= 1e-12 * max(abs(r.imag), abs(r.real)), (tau, beta, k)


def _assert_sweep_bounds(p, k, lams):
    """The residual, Vieta and sign bounds of TestRandomSweep for one triple."""
    tau, beta = p.tau, p.beta
    lams = np.array(lams, dtype=complex)
    for lam in lams:
        r, s = characteristic_residual(p, lam, k)
        assert r <= 1e-9 * s, (tau, beta, k, lams)
    k2 = k * k
    assert abs(lams.sum() + 1.0 / tau) <= 1e-9 * (1.0 / tau), (tau, beta, k, lams)
    e2 = lams[0] * lams[1] + lams[0] * lams[2] + lams[1] * lams[2]
    assert abs(e2 - beta * k2 / tau) <= 1e-9 * max(1.0, beta * k2 / tau), (tau, beta, k, lams)
    assert abs(lams.prod() + k2 / tau) <= 1e-9 * max(1.0, k2 / tau), (tau, beta, k, lams)
    for lam in lams:
        if lam.imag == 0.0:
            assert -1.0 / tau < lam.real < -1.0 / beta, (tau, beta, k, lams)
        else:
            assert -0.5 * (1.0 / tau - 1.0 / beta) < lam.real < 0.0, (tau, beta, k, lams)
    assert np.min(np.abs(lams.real)) > 1e-10


class TestNearCriticalConfluence:
    """tau/beta = (1 +- d)/9 and k^2 within +-1e-14..1e-6 (relative) of m1, m2 or
    the merged threshold -tau c1/(8 beta^3): all three roots crowd around
    -1/(3 tau), and each must still meet the residual, Vieta and sign bounds,
    from eigenvalues and from atlas alike."""

    @pytest.mark.parametrize("beta", [1.0, 0.37, 1.9])
    def test_eigenvalues_and_atlas(self, beta):
        offsets = np.concatenate([[0.0], np.geomspace(1e-14, 1e-6, 9)])
        for d in np.geomspace(1e-13, 1e-5, 9):
            for ratio in ((1.0 - d) / 9.0, (1.0 + d) / 9.0):
                p = validate(ratio * beta, beta)
                thr = cardano_thresholds(p)
                centres = [-p.tau * thr.c1 / (8.0 * beta**3)]
                if thr.m1 is not None:
                    centres += [thr.m1, thr.m2]
                ks = sorted({math.sqrt(m * (1.0 + s * e)) for m in centres
                             for e in offsets for s in (-1.0, 1.0)})
                for k in ks:
                    _assert_sweep_bounds(p, k, eigenvalues(p, k).lambdas)
                for pt in atlas(p, ks):
                    _assert_sweep_bounds(p, pt.k, pt.lambdas)
                if abs(9.0 * ratio - 1.0) <= 1e-12:
                    # inside the critical window, on either side of 1/9 (d = 1e-13 above
                    # it is where m1 and m2 are absent), the triple point is the triple root
                    k = math.sqrt(centres[0])
                    assert eigenvalues(p, k).pattern is RootPattern.TRIPLE_REAL, (ratio, beta)
                    assert atlas(p, [k])[0].pattern is RootPattern.TRIPLE_REAL, (ratio, beta)


def _exact_pattern(p, k):
    """The pattern from the sign of the cubic's discriminant in exact rationals."""
    a, b = Fraction(p.tau), Fraction(1)
    k2 = Fraction(k) ** 2
    c, d = Fraction(p.beta) * k2, k2
    disc = 18 * a * b * c * d - 4 * b**3 * d + b * b * c * c - 4 * a * c**3 - 27 * a * a * d * d
    if disc > 0:
        return RootPattern.THREE_DISTINCT_REAL
    return RootPattern.REAL_PLUS_PAIR if disc < 0 else RootPattern.REAL_WITH_DOUBLE


def _greedy_atlas(p, ks):
    """atlas as a per-point loop over eigenvalues: each triple is relabeled by the
    first permutation of least total displacement from its predecessor."""
    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    out, prev = [], None
    for k in ks:
        pt = eigenvalues(p, float(k))
        lams = np.array(pt.lambdas, dtype=complex)
        if prev is not None:
            costs = [np.sort(np.abs(lams[list(perm)] - prev)).sum() for perm in perms]
            lams = lams[list(perms[int(np.argmin(costs))])]
        out.append((float(k), lams, pt.pattern))
        prev = lams
    return out


class TestOnePatternDecision:
    """eigenvalues and atlas report one pattern, the sign of the exact
    discriminant away from the TOL_BOUNDARY windows, and atlas is one root call
    followed by the per-point greedy relabeling, bit for bit."""

    def _check(self, p, ks):
        pts = atlas(p, ks)
        for k, pt in zip(ks, pts):
            want = _exact_pattern(p, k)
            assert eigenvalues(p, k).pattern is want, (p, k)
            assert pt.pattern is want, (p, k)

    def test_random_draws(self):
        rng = np.random.default_rng(2024)
        for i in range(300):
            beta = rng.uniform(0.05, 2.0) * rng.choice(SCALES)
            tau = beta * (rng.uniform(0.005, 0.11) if i % 2 else rng.uniform(0.001, 0.999))
            ks = np.sort(10.0 ** rng.uniform(-6.0, 6.0, 8))
            self._check(validate(tau, beta), [float(k) for k in ks])

    def test_near_thresholds(self):
        # k^2 between 1e-10 and 1e-2 (relative) of m1 or m2, at ratios from
        # ordinary to within 1e-11 of the critical ratio, at every scale
        rng = np.random.default_rng(77)
        for _ in range(300):
            beta = rng.uniform(0.05, 2.0) * rng.choice(SCALES)
            p = validate((1.0 - 10.0 ** rng.uniform(-11.0, -0.05)) / 9.0 * beta, beta)
            thr = cardano_thresholds(p)
            ks = sorted(math.sqrt(m * (1.0 + s * 10.0 ** rng.uniform(-10.0, -2.0)))
                        for m in (thr.m1, thr.m2) for s in (-1.0, 1.0))
            self._check(p, ks)

    @pytest.mark.parametrize("p, ks", [
        (P, np.linspace(0.0, 4.0, 161)),                          # through the window
        (P, np.concatenate([np.linspace(0.0, 1.7, 18), [math.sqrt(3.125)],
                            np.linspace(1.77, 1.8, 31)])),         # a node on m1
        (P_CRIT, np.linspace(0.0, 2.0 * math.sqrt(3.0), 201)),   # through sqrt(3) at 1/9
        (P_SUPER, np.linspace(0.0, 10.0, 101)),
        (validate(0.05, 1.3), np.geomspace(1e-6, 1e6, 300)),
    ])
    def test_atlas_equals_greedy_loop(self, p, ks):
        pts = atlas(p, ks)
        ref = _greedy_atlas(p, ks)
        assert len(pts) == len(ref)
        for pt, (k, lams, pattern) in zip(pts, ref):
            assert pt.k == k and pt.pattern is pattern
            assert np.array(pt.lambdas, dtype=complex).tobytes() == lams.tobytes(), k

    def test_critical_grid_hits_the_triple_root(self):
        ks = np.linspace(0.0, 2.0 * math.sqrt(3.0), 201)
        assert atlas(P_CRIT, ks)[100].pattern is RootPattern.TRIPLE_REAL

    def test_atlas_makes_one_root_call(self, monkeypatch):
        calls = []
        inner = spectrum._cubic_roots_batch

        def spy(tau, beta, k2):
            calls.append(np.size(k2))
            return inner(tau, beta, k2)

        monkeypatch.setattr(spectrum, "_cubic_roots_batch", spy)
        atlas(P, np.linspace(0.0, 4.0, 400))
        assert calls == [400]


def _three_real_window(tau, beta, edge):
    """(params, k^2) across the three-real window: k^2 = m1 + f (m2 - m1) for f
    from edge to 1 - edge, and the k^2 where the roots are equally spaced
    (theta = pi/2, the middle root -1/(3 tau))."""
    p = validate(tau, beta)
    thr = cardano_thresholds(p)
    f = np.concatenate([[edge], np.linspace(1e-3, 1.0 - 1e-3, 41), [1.0 - edge]])
    equal_gaps = 2.0 / (9.0 * tau * (beta - 3.0 * tau))
    return p, np.sort(np.append(thr.m1 + f * (thr.m2 - thr.m1), equal_gaps))


class TestThreeRealWindow:
    """Between m1 and m2 the real root is one trigonometric branch, the root
    farthest from the other two; the roots and the modes must hold across the
    whole window, through the equal-gap point where the choice switches."""

    CASES = [(0.1, 1.0), (0.02, 1.1), (0.09, 1.2), (0.01, 0.5), (0.11, 1.0)]

    @pytest.mark.parametrize("tau, beta", CASES)
    def test_roots_match_mpmath(self, tau, beta):
        p, k2s = _three_real_window(tau, beta, 1e-3)
        for k in np.sqrt(k2s):
            pt = eigenvalues(p, float(k))
            assert pt.pattern is RootPattern.THREE_DISTINCT_REAL, k
            got = sorted(z.real for z in pt.lambdas)
            ref = sorted(z.real for z in _mp_roots(tau, beta, k))
            assert all(z.imag == 0.0 for z in pt.lambdas)
            for g, r in zip(got, ref):
                assert abs(g - r) <= 1e-12 * abs(r), (tau, beta, k)

    @pytest.mark.parametrize("tau, beta", CASES)
    def test_grid_modes_match_expm(self, tau, beta):
        from scipy.linalg import expm

        y0 = np.array([0.4 - 0.3j, -1.1 + 0.2j, 0.7 + 0.9j])
        p, k2s = _three_real_window(tau, beta, 1e-10)
        ks = np.sqrt(k2s)
        for t in (0.5, 3.0, 10.0):
            grid = np.array(solve_modes_on_grid(p, ks, *(np.full(ks.size, y) for y in y0), t))
            for i, k in enumerate(ks):
                ref = expm(mode_matrix(p, k) * t) @ y0
                assert np.linalg.norm(grid[:, i] - ref) <= 1e-10 * np.linalg.norm(ref), (k, t)


class TestAtlasTieBreak:
    """Where a conjugate pair meets the real axis, |x - z| = |x - conj(z)| and
    the two assignments of the new real roots tie exactly; atlas must break
    that tie the same way whatever the last bits of the real roots."""

    @pytest.mark.parametrize("p, ks", [
        (P, np.linspace(0.0, 5.0, 201)),
        (validate(0.05, 1.3), np.geomspace(1e-6, 1e6, 500)),
    ])
    def test_labels_survive_last_bit_changes(self, p, ks, monkeypatch):
        ref = np.array([pt.lambdas for pt in atlas(p, ks)])
        inner = spectrum._spectrum
        for seed in range(20):
            rng = np.random.default_rng(seed)

            def perturbed(p, k2):
                roots, patterns = inner(p, k2)
                real = np.all(roots.imag == 0.0, axis=1)
                j = rng.integers(-4, 5, size=(real.sum(), 3))
                roots[real] *= 1.0 + j * np.finfo(float).eps
                return roots, patterns

            monkeypatch.setattr(spectrum, "_spectrum", perturbed)
            got = np.array([pt.lambdas for pt in atlas(p, ks)])
            assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref))), seed


class TestMaxStiffness:
    """beta*k^2/tau up to MAX_STIFFNESS gives finite roots; beyond it every entry
    point raises InvalidFrequency, naming the bound of the offending row."""

    K_BOUND = math.sqrt(spectrum.MAX_STIFFNESS * P.tau / P.beta)

    def test_roots_finite_just_below_the_bound(self):
        pt = eigenvalues(P, self.K_BOUND * (1.0 - 1e-12))
        assert pt.pattern is RootPattern.REAL_PLUS_PAIR
        lam1, lam2, lam3 = pt.lambdas
        assert lam1 == pytest.approx(-1.0, rel=1e-9)
        assert lam2.real == pytest.approx(-4.5, rel=1e-9)
        assert lam2.imag == pytest.approx(1e51, rel=1e-9)
        assert lam3 == lam2.conjugate()

    def test_every_entry_point_raises_beyond_the_bound(self):
        from mgt_spectral import ModeState, solve_mode
        k = self.K_BOUND * (1.0 + 1e-12)
        bound = re.escape(f"k <= {self.K_BOUND:.3e} here")
        with pytest.raises(InvalidFrequency, match=bound):
            eigenvalues(P, k)
        with pytest.raises(InvalidFrequency, match=bound):
            atlas(P, [0.0, 1.0, k])
        with pytest.raises(InvalidFrequency, match=bound):
            solve_mode(P, ModeState(1.0, 0.0, 0.0, k=k), 1.0)
        ones = np.ones(2)
        with pytest.raises(InvalidFrequency, match=bound):
            solve_modes_on_grid(P, np.array([1.0, k]), ones, 0.0 * ones, 0.0 * ones, 1.0)

    def test_mixed_rows_name_the_stiff_row(self):
        rows = ModelParams(np.array([0.1, 0.5, 0.2]), np.array([1.0, 1.0, 1.5]))
        k_bound = math.sqrt(spectrum.MAX_STIFFNESS * 0.5)
        ks = np.array([1e50, k_bound * (1.0 + 1e-12), 1.0])
        with pytest.raises(InvalidFrequency, match=re.escape(f"k <= {k_bound:.3e} here")):
            spectrum._spectrum(rows, ks * ks)


def _mixed_rows():
    """(tau, beta, k) rows of every kind: the TestNearCriticalConfluence ratios
    (1 +- d)/9 with k^2 at and around m1, m2 and the merged threshold, the
    three-real window, super-critical rows and k = 0."""
    rows = []
    for beta in (1.0, 0.37):
        for d in np.geomspace(1e-13, 1e-5, 5):
            for ratio in ((1.0 - d) / 9.0, (1.0 + d) / 9.0):
                p = validate(ratio * beta, beta)
                thr = cardano_thresholds(p)
                centres = [-p.tau * thr.c1 / (8.0 * beta**3)]
                if thr.m1 is not None:
                    centres += [thr.m1, thr.m2]
                rows += [(p.tau, beta, math.sqrt(m * (1.0 + e))) for m in centres
                         for e in (-1e-8, -1e-14, 0.0, 1e-14, 1e-8)]
    rows += [(P_CRIT.tau, P_CRIT.beta, math.sqrt(3.0))]
    for tau, beta in TestThreeRealWindow.CASES:
        p, k2s = _three_real_window(tau, beta, 1e-10)
        rows += [(tau, beta, float(k)) for k in np.sqrt(k2s)]
    rows += [(tau, 1.0, k) for tau in (0.3, 0.5, 0.965) for k in (1e-6, 0.7, 40.0, 1e8)]
    rows += [(tau, beta, 0.0) for tau, beta in ((0.1, 1.0), (1.0 / 9.0, 1.0), (0.5, 1.3))]
    # rows whose roots move in the last bit if a parameter cube is taken with a
    # vectorised power that rounds differently from Python's (AVX-512 numpy)
    rows += [(0.20764809121295044, 1.675629162952105, 0.9846053827113642),
             (0.0717451883759927, 1.037564457369971, 1.070500318741456),
             (0.13426673434764885, 1.7150046627944406, 1.236920580176676),
             (0.014586166162671109, 0.16660083326818695, 17.742957454608327)]
    return rows


class TestPerRowParameters:
    """The root-and-pattern path is elementwise in tau and beta: one call over rows
    of different parameters gives each row the bits of its own batch of one."""

    def test_mixed_batch_equals_per_row_eigenvalues(self):
        rows = _mixed_rows()
        taus, betas, ks = (np.array(x) for x in zip(*rows))
        roots, patterns = spectrum._spectrum(ModelParams(taus, betas), ks * ks)
        assert set(patterns) == set(RootPattern)
        for (tau, beta, k), got, pattern in zip(rows, roots, patterns):
            pt = eigenvalues(validate(tau, beta), k)
            assert pt.pattern is pattern, (tau, beta, k)
            assert np.array(pt.lambdas, dtype=complex).tobytes() == got.tobytes(), (tau, beta, k)

    def test_thresholds_equal_the_scalar_api(self):
        # params' critical window and triple point, elementwise as _route_confluent
        # calls them, against cardano_thresholds and regime on each row
        from mgt_spectral.params import Regime, _critical, _triple_numerator, regime
        rng = np.random.default_rng(13)
        edge = CRITICAL_RATIO * TOL_CRITICAL
        ratios = np.concatenate([
            rng.uniform(0.001, 0.999, 200),
            CRITICAL_RATIO * (1.0 + np.geomspace(1e-16, 1e-2, 15) * rng.choice([-1.0, 1.0], 15)),
            [CRITICAL_RATIO, CRITICAL_RATIO - edge, CRITICAL_RATIO + edge],
            [np.nextafter(CRITICAL_RATIO + s * edge, s * np.inf) for s in (-1.0, 1.0)]])
        betas = rng.uniform(0.05, 2.0, ratios.size)
        taus = ratios * betas

        def thresholds(tau, beta):
            s = tau / beta
            return _triple_numerator(s) / (8.0 * beta * tau), _critical(s)

        m, critical = thresholds(taus, betas)
        kinds = set()
        for i, (tau, beta) in enumerate(zip(taus, betas)):
            p = validate(tau, beta)
            thr = cardano_thresholds(p)
            one = thresholds(p.tau, p.beta)
            for row in ((m[i], critical[i]), one):
                # the mean of m1 and m2 where they exist, defined on both sides; m1
                # and m2 are each rounded, so the two forms differ by up to two ulps
                assert math.isfinite(row[0]), (tau, beta)
                if thr.m1 is not None:
                    mean = 0.5 * (thr.m1 + thr.m2)
                    assert abs(row[0] - mean) <= 2.0 * math.ulp(mean), (tau, beta)
                assert bool(row[1]) is (regime(p) is Regime.CRITICAL), (tau, beta)
            kinds.add((thr.m1 is None, regime(p)))
        assert len(kinds) == 4  # sub, super, and critical with and without thresholds

    def test_verify_sweep_makes_one_root_call(self, monkeypatch):
        from mgt_spectral import verify
        calls = []
        inner = spectrum._cubic_roots_batch

        def spy(tau, beta, k2):
            calls.append(np.size(k2))
            return inner(tau, beta, k2)

        monkeypatch.setattr(spectrum, "_cubic_roots_batch", spy)
        checks = verify._suite_spectrum(np.random.default_rng(5), 500)
        assert all(c.passed for c in checks), checks
        assert calls == [500]


def _rebuilt_cubic(lambdas):
    """(A, B, C) of z^3 + A z^2 + B z + C whose roots are exactly the returned floats (Vieta)."""
    def mul(x, y):
        return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]

    r1, r2, r3 = ((Fraction(z.real), Fraction(z.imag)) for z in lambdas)
    e1 = (r1[0] + r2[0] + r3[0], r1[1] + r2[1] + r3[1])
    e2 = tuple(map(sum, zip(mul(r1, r2), mul(r1, r3), mul(r2, r3))))
    e3 = mul(mul(r1, r2), r3)
    assert e1[1] == e2[1] == e3[1] == 0  # a pair is returned as exact conjugates
    return -e1[0], e2[0], -e3[0]


def _contract_excess(tau, beta, k, lambdas):
    """The largest relative miss of the root contract on one returned triple; <= 1 holds it.

    The input cubic is that of the exact floats tau, beta, k.  Outside the confluent
    windows each rebuilt coefficient matches it within TOL_RESIDUAL.  Inside them (a
    double or triple root) the rebuilt cubic is that of a point (tau', beta', k'^2) with
    k'^2 within TOL_BOUNDARY of k^2, tau' within TOL_RESIDUAL of tau, and beta' within
    TOL_RESIDUAL of beta or, at the critical ratio, tau'/beta' within TOL_CRITICAL (of
    1/9, the window's own scale) of tau/beta.
    """
    tau, beta, k2 = Fraction(tau), Fraction(beta), Fraction(k) ** 2
    A, B, C = _rebuilt_cubic(lambdas)
    pattern = eigenvalues(validate(float(tau), float(beta)), k).pattern

    def rel(x, ref):
        return abs(x - ref) / abs(ref)

    if pattern not in (RootPattern.REAL_WITH_DOUBLE, RootPattern.TRIPLE_REAL):
        return float(max(rel(A, 1 / tau), rel(B, beta * k2 / tau), rel(C, k2 / tau))
                     / Fraction(spectrum.TOL_RESIDUAL))
    tau_, k2_, beta_ = 1 / A, C / A, B / C
    misses = [rel(k2_, k2) / Fraction(spectrum.TOL_BOUNDARY),
              rel(tau_, tau) / Fraction(spectrum.TOL_RESIDUAL)]
    if pattern is RootPattern.TRIPLE_REAL:
        misses.append(abs(tau_ / beta_ - tau / beta)
                      / (Fraction(TOL_CRITICAL) * Fraction(CRITICAL_RATIO)))
    else:
        misses.append(rel(beta_, beta) / Fraction(spectrum.TOL_RESIDUAL))
    return float(max(misses))


def _contract_rows():
    """(tau, beta, k): the offsets 1e-5 ... 1e-15 either side of m1 and m2 at (0.05, 1),
    the critical point (0.1111111111111, 1, sqrt(3)) and 200 draws over the range of
    the `mgt verify` spectrum sweep."""
    th = cardano_thresholds(validate(0.05, 1.0))
    rows = [(0.05, 1.0, math.sqrt(m * (1.0 + sign * 10.0**-d)))
            for m in (th.m1, th.m2) for sign in (-1.0, 1.0) for d in range(5, 16)]
    rows.append((0.1111111111111, 1.0, math.sqrt(3.0)))
    rng = np.random.default_rng(2024)
    for _ in range(200):
        tau = rng.uniform(0.01, 1.0)
        rows.append((tau, min(tau + rng.uniform(0.02, 2.0), 2.0), rng.uniform(0.0, 100.0)))
    return rows


class TestRootContract:
    """The backward-error contract of eigenvalues, judged in exact arithmetic."""

    ROWS = _contract_rows()

    def test_windows_are_reached(self):
        patterns = [eigenvalues(validate(t, b), k).pattern for t, b, k in self.ROWS]
        assert patterns.count(RootPattern.TRIPLE_REAL) == 1
        assert patterns.count(RootPattern.REAL_WITH_DOUBLE) >= 4

    @pytest.mark.parametrize("row", range(len(ROWS)))
    def test_rebuilt_cubic_is_within_the_contract(self, row):
        tau, beta, k = self.ROWS[row]
        lambdas = eigenvalues(validate(tau, beta), k).lambdas
        assert _contract_excess(tau, beta, k, lambdas) <= 1.0

    def test_roots_scaled_by_a_part_in_1e9_break_it(self):
        for tau, beta, k in self.ROWS:
            lambdas = eigenvalues(validate(tau, beta), k).lambdas
            assert _contract_excess(tau, beta, k, [z * (1.0 + 1e-9) for z in lambdas]) > 1.0
