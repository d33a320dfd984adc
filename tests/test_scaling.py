"""The scaling symmetry of the MGT equation, as one metamorphic contract.

Dividing x and t by s maps tau u''' + u'' - lap(u) - beta lap(u_t) = 0 at
(tau, beta) to the same equation at (tau/s, beta/s).  Written for the point
(s tau, s beta), which these tests evaluate next to (tau, beta):

- the roots at frequency k/s are lam/s, and the root pattern is the same;
- the mode at (k/s, t s) with data (u0, u1/s, u2/s^2) is (u, u'/s, u''/s^2);
- J_j at time t s, with each profile's scale multiplied by s, its amplitude
  scaled like the data and quad_tol by s^-(2j+N), is s^-(2j+N) J_j(t);
- region_rates scale as 1/s.

At a power-of-two s every floating-point step of the root computation and
its routing is exact, so roots and patterns must agree bit for bit; at
decimal scales each number agrees within its own budget.

v_norm_sq has no such identity, and is not tested here.  Its energy vector
(u' + tau u'', k |u + tau u'|, k |u'|) scales as (1/s, 1/s, 1/s^2), by no
single power of s, so the scaled norm is no fixed multiple of the unscaled
one: at s = 1e3, (0.1, 1), N = 3, the ratio times s^3 runs from 5.4e-7 to
9.3e-7 with the data and the time.
"""

import math

import numpy as np
import pytest

from mgt_spectral import (FrequencyProfile, ModeState, RootPattern, atlas, cardano_thresholds,
                          eigenvalues, region_rates, sobolev_norm_sq, solve_mode,
                          solve_modes_on_grid, validate)

POWER_OF_TWO_SCALES = (2.0**-20, 2.0**-10, 2.0**10, 2.0**30)
DECIMAL_SCALES = (1e-6, 1e-3, 1e3, 1e6, 1e9)


def _root_draws():
    """(tau, beta, ascending ks): sub-critical, near-critical, critical and
    other ratios, each with k = 0, log-uniform k, and k^2 within 1e-12..1e-3
    (relative) of each threshold m1, m2 or of the triple root."""
    rng = np.random.default_rng(31)
    draws = []
    for i in range(48):
        beta = rng.uniform(0.05, 2.0)
        ratio = (rng.uniform(0.005, 0.11), (1.0 - 10.0 ** rng.uniform(-11.0, -1.0)) / 9.0,
                 1.0 / 9.0, rng.uniform(0.001, 0.999))[i % 4]
        thr = cardano_thresholds(validate(ratio * beta, beta))
        if i % 4 == 2:
            centres = [3.0 / beta**2]  # the triple root's k^2 at the critical ratio
        else:
            centres = [] if thr.m1 is None else [thr.m1, thr.m2]
        ks = [0.0, *10.0 ** rng.uniform(-4.0, 3.0, 5), *(math.sqrt(m) for m in centres)]
        ks += [math.sqrt(m * (1.0 + sign * 10.0 ** rng.uniform(-12.0, -3.0)))
               for m in centres for sign in (-1.0, 1.0)]
        draws.append((ratio * beta, beta, sorted(ks)))
    return draws


ROOT_DRAWS = _root_draws()


def _bits(lams, scale=1.0):
    return (np.array(lams, dtype=complex) * scale).tobytes()


@pytest.mark.parametrize("s", POWER_OF_TWO_SCALES)
def test_roots_and_patterns_scale_exactly(s):
    for tau, beta, ks in ROOT_DRAWS:
        p, ps = validate(tau, beta), validate(s * tau, s * beta)
        ks_s = [k / s for k in ks]
        for pt, pt_s in zip(atlas(p, ks), atlas(ps, ks_s)):
            assert pt_s.pattern is pt.pattern, (tau, beta, pt.k, s)
            assert _bits(pt_s.lambdas, s) == _bits(pt.lambdas), (tau, beta, pt.k, s)
        for k, k_s in zip(ks, ks_s):
            ref, got = eigenvalues(p, k), eigenvalues(ps, k_s)
            assert got.pattern is ref.pattern, (tau, beta, k, s)
            assert _bits(got.lambdas, s) == _bits(ref.lambdas), (tau, beta, k, s)


def test_large_beta_point_against_mpmath():
    # k^2 is 41 m2 here, far outside the threshold windows: a pair, not a double root
    mp = pytest.importorskip("mpmath")
    tau, beta, k = 9.806e7, 1e9, 1.152e-8
    with mp.workdps(40):
        k2 = mp.mpf(k) ** 2
        ref = sorted((complex(z) for z in mp.polyroots([mp.mpf(tau), 1, mp.mpf(beta) * k2, k2],
                                                       maxsteps=100, extraprec=100)),
                     key=lambda z: (z.real, z.imag))
    p = validate(tau, beta)
    pt, (node,) = eigenvalues(p, k), atlas(p, [k])
    assert pt.pattern is node.pattern is RootPattern.REAL_PLUS_PAIR
    for lams in (pt.lambdas, node.lambdas):
        got = sorted(lams, key=lambda z: (z.real, z.imag))
        assert max(abs(g - r) / abs(r) for g, r in zip(got, ref)) <= 1e-12, got


@pytest.mark.parametrize("s", DECIMAL_SCALES)
def test_modes_scale(s):
    # each component within 1e-12 of |y0|: one rounding of the scaled inputs
    # moves u'' by up to about 3e-13 of |y0| here (tau/beta 0.016, k 0.03), and
    # by more where the phase grows large (1.7e-12 at k 31 after about 640 rad)
    rng = np.random.default_rng(32)
    for _ in range(20):
        beta = rng.uniform(0.05, 2.0)
        tau = beta * rng.uniform(0.001, 0.999)
        p, ps = validate(tau, beta), validate(s * tau, s * beta)
        ks = 10.0 ** rng.uniform(-2.0, 1.0, 16)
        y0 = rng.standard_normal((3, ks.size))
        size = np.linalg.norm(y0, axis=0)
        t = 10.0 ** rng.uniform(-2.0, 2.0)
        ref, _ = solve_modes_on_grid(p, ks, *y0, t)
        got, _ = solve_modes_on_grid(ps, ks / s, y0[0], y0[1] / s, y0[2] / s**2, t * s)
        for order, (g, r) in enumerate(zip(got, ref)):
            assert np.all(np.abs(g * s**order - r) <= 1e-12 * size), (tau, beta, t, s, order)
        ts = np.array([0.0, 0.5 * t, t])
        for k, (u0, u1, u2), n in zip(ks[:4], y0.T, size):
            ref = solve_mode(p, ModeState(u0, u1, u2, k=k), ts)
            got = solve_mode(ps, ModeState(u0, u1 / s, u2 / s**2, k=k / s), ts * s)
            for order, (g, r) in enumerate(zip((got.u_hat, got.v_hat, got.w_hat),
                                               (ref.u_hat, ref.v_hat, ref.w_hat))):
                assert np.all(np.abs(g * s**order - r) <= 1e-12 * n), (tau, beta, k, s, order)


def _scaled_data(data, s):
    """Each profile's scale multiplied by s and its amplitude by (1, 1/s, 1/s^2)."""
    return tuple(FrequencyProfile(prof.order, prof.scale * s, prof.amplitude / s**order)
                 for order, prof in enumerate(data))


GAUSS = FrequencyProfile.gaussian()
MF = FrequencyProfile.moment_free(scale=0.7, amplitude=2.0)
NORM_CASES = [  # tau, beta, data, dim, j, t
    (0.1, 1.0, (GAUSS, GAUSS, GAUSS), 3, 0, 100.0),
    (0.965, 1.0, (FrequencyProfile.zero(), FrequencyProfile.zero(), GAUSS), 3, 1, 10.0),
    (0.5, 1.25, (MF, GAUSS, MF), 1, 0, 2.0),
    (1.0 / 9.0, 1.0, (GAUSS, MF, FrequencyProfile.zero()), 2, 1, 1.0),
]


@pytest.mark.parametrize("s", DECIMAL_SCALES)
def test_sobolev_norm_scales(s):
    for tau, beta, data, dim, j, t in NORM_CASES:
        w = s ** -(2 * j + dim)
        ref = sobolev_norm_sq(validate(tau, beta), data, dim, j, t, 1e-13)
        got = sobolev_norm_sq(validate(s * tau, s * beta), _scaled_data(data, s), dim, j, t * s,
                              1e-13 * w)
        assert abs(got - w * ref) <= 1e-12 * w * ref, (tau, beta, dim, j, t, s)


@pytest.mark.parametrize("s", DECIMAL_SCALES)
def test_region_rates_scale(s):
    for tau, beta in [(0.1, 1.0), (0.02, 0.3), (1.0 / 9.0, 1.0), (0.5, 1.0), (0.9, 1.25)]:
        ref = region_rates(validate(tau, beta))
        got = region_rates(validate(s * tau, s * beta))
        for g, r in zip(got, ref):
            assert g * s == pytest.approx(r, rel=1e-13), (tau, beta, s)
