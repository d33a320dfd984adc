"""Per-mode energy and Lyapunov functionals, dissipation and decay margins.

The mode energy

    E = (1/2) ( |v + tau w|^2 + tau (beta - tau) k^2 |v|^2 + k^2 |u + tau v|^2 )

dissipates exactly at rate (beta - tau) k^2 |v|^2.  Adding the two cross
functionals F1 and F2 with frequency weight rho(k) = k^2 / (1 + k^2) yields a
Lyapunov functional L equivalent to E that obeys dL/dt + gamma5 rho L <= 0
with a strictly positive margin gamma5 whenever 0 < tau < beta.  This module
builds the weights, verifies the differential inequalities numerically, and
exports the constants (C, c) of the pointwise exponential bound

    |V(k, t)|^2 <= C exp(-c rho(k) t) |V(k, 0)|^2.

The constants are measured in the energy coordinates

    Y = (A, k B, s k v),  A = v + tau w,  B = u + tau v,  s = sqrt(tau (beta - tau)),

(A and B are V's forms, mode_solver._v_forms), in which E = |Y|^2 / 2 and L = Y^T Lam Y / 2 with

    Lam = gamma0 I + k/(1 + k^2) N,  N = [[0, 1, c], [1, 0, 0], [c, 0, 0]],
    c = -gamma1 sqrt(tau / (beta - tau)).

N has the eigenvalues 0 and -/+sigma, sigma = sqrt(1 + c^2), so L/E spans
exactly gamma0 -/+ sigma k/(1 + k^2): the equivalence constants are closed
form.  The decay margin at k is the least eigenvalue of the pencil (G, Lam),
where -dL/dt = rho Y^T G Y / 2 and every entry of G = D/rho stays O(1) but
the stiff G22 and G02.  A vectorised Newton iteration from mu = 0 finds the
least root of det(G - mu Lam), eliminating index 2 first, and Sylvester
inertia (the signs of the LDL^T pivots just below and just above the root)
certifies it.  On the test points it agrees with 40-digit mpmath to about
2e-16 relative.  No LAPACK routine is called.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, InvalidInput, NonPositiveMargin
from .mode_solver import (DataTriple, ModeState, _evolve, _times, _v_forms, solve_mode, v_vector,
                          mode_coefficients)  # unused; bench/tests/test_bench.py pins the alias
from .params import ModelParams
from .spectrum import _frequencies, _grid

#: One-sided slack, relative to the functional scale, in the margin sweeps.
MARGIN_TOL = 1e-10

@dataclass(frozen=True)
class LyapunovWeights:
    """Weights of the Lyapunov functional and its measured constants.

    equiv_lo/equiv_hi sandwich L between multiples of the energy; v_lo/v_hi
    sandwich |V|^2 the same way; gamma5 is the decay margin of
    dL/dt + gamma5 rho L <= 0.
    """

    gamma0: float
    gamma1: float
    eps0: float
    eps1: float
    eps2: float
    gamma5: float
    equiv_lo: float
    equiv_hi: float
    v_lo: float
    v_hi: float


@dataclass(frozen=True)
class FunctionalValues:
    energy: float
    f1: float
    f2: float
    lyap: float
    rho: float


def rho(k: float | np.ndarray):
    """Low/high-frequency interpolating rate k^2 / (1 + k^2)."""
    k2 = np.square(_frequencies(k))
    return k2 / (1.0 + k2)


def functionals(p: ModelParams, state: ModeState, w: LyapunovWeights) -> FunctionalValues:
    """Evaluate energy, the two cross functionals, and the Lyapunov combination.

    Elementwise: a state of arrays (a trajectory) gives arrays of values.
    """
    k2 = state.k * state.k
    y = (state.u_hat, state.v_hat, state.w_hat)
    A, B = (form(y) for _, form in _v_forms(p.tau)[:2])
    energy = 0.5 * (abs(A) ** 2 + p.tau * (p.beta - p.tau) * k2 * abs(state.v_hat) ** 2
                    + k2 * abs(B) ** 2)
    f1 = (np.conj(B) * A).real
    f2 = -p.tau * (np.conj(state.v_hat) * A).real
    r = k2 / (1.0 + k2)
    lyap = w.gamma0 * energy + r * f1 + w.gamma1 * r * f2
    return FunctionalValues(energy=energy, f1=f1, f2=f2, lyap=lyap, rho=r)


# ---------------------------------------------------------------------------
# the constants in the energy coordinates (see the module docstring); a
# symmetric 3x3 matrix per frequency is the tuple of its entries
# (00, 11, 22, 01, 02, 12), each a scalar or an array over the frequencies
# ---------------------------------------------------------------------------

def _equivalence_gap(p: ModelParams, ks: np.ndarray, gamma1: float) -> np.ndarray:
    """sigma k / (1 + k^2), sigma = sqrt(1 + c^2): L/E spans exactly gamma0 -/+ this at k."""
    sigma = math.sqrt(1.0 + gamma1 * gamma1 * p.tau / (p.beta - p.tau))
    return sigma * ks / (1.0 + ks * ks)


def _decay_pencil(p: ModelParams, ks: np.ndarray, gamma0: float, gamma1: float):
    """(G, Lam), -dL/dt = rho Y^T G Y / 2: the margin is the least mu making G - mu Lam singular.

    Every entry is O(1) at every k but the stiff G22 ~ 2 gamma0 / (tau k^2)
    and G02 ~ 1/k as k -> 0, which is why index 2 is eliminated first.
    """
    s = math.sqrt(p.tau * (p.beta - p.tau))
    r = ks / (1.0 + ks * ks)
    g = (2.0 * (gamma1 - 1.0), 2.0, 2.0 * gamma0 / p.tau * (1.0 + 1.0 / (ks * ks)) - 2.0 * gamma1,
         0.0, -gamma1 / (ks * s), (p.beta - p.tau - gamma1 * p.tau) / s)
    lam = (gamma0, gamma0, gamma0, r, -gamma1 * p.tau / s * r, 0.0)
    return g, lam


def _schur(g, lam, mu):
    """M22, the Schur complement (S00, S11, S01) of M22 in M = G - mu Lam, and M02/M22, M12/M22."""
    m00, m11, m22, m01, m02, m12 = (gi - mu * li for gi, li in zip(g, lam))
    t02, t12 = m02 / m22, m12 / m22
    return m22, m00 - m02 * t02, m11 - m12 * t12, m01 - m02 * t12, t02, t12


def _positive_definite(g, lam, mu) -> np.ndarray:
    """Whether G - mu Lam is positive definite at each k: all three LDL^T pivots > 0."""
    m22, s00, s11, s01, _, _ = _schur(g, lam, mu)
    return (m22 > 0.0) & (s00 > 0.0) & (s11 - s01 * s01 / s00 > 0.0)


def _newton_step(g, lam, mu):
    """Newton step for det(G - mu Lam) = M22 (S00 S11 - S01^2), from its log-derivative.

    dM/dmu = -Lam, and Lam12 = 0.  All roots are real, so from the left of the
    smallest one the steps increase mu and never pass it.
    """
    gamma0, r, rc = lam[0], lam[3], lam[4]
    m22, s00, s11, s01, t02, t12 = _schur(g, lam, mu)
    det_s = s00 * s11 - s01 * s01
    d_det_s = ((2.0 * rc * t02 - gamma0 * (1.0 + t02 * t02)) * s11
               - gamma0 * (1.0 + t12 * t12) * s00
               - 2.0 * s01 * (rc * t12 - r - gamma0 * t02 * t12))
    return 1.0 / (gamma0 / m22 - d_det_s / det_s)


_NEWTON_STEPS = 50
#: Relative half-width of the bracket the inertia certificate puts around each margin.
_CERTIFY_REL = 1e-9


def _require(ok: np.ndarray, ks: np.ndarray, what: str) -> None:
    """NonPositiveMargin naming the first frequency of ks where ok is False."""
    if not ok.all():
        raise NonPositiveMargin(f"{what} at k={float(ks[~ok][0]):.6g}")


def _certified_margins(p: ModelParams, ks: np.ndarray, gamma0: float,
                       gamma1: float) -> np.ndarray:
    """Exact state-minimum of (-dL/dt) / (rho L) at each frequency of ks, certified.

    Newton from mu = 0 on the determinant of the pencil, then Sylvester
    inertia: G - mu Lam must be positive definite at mu (1 - _CERTIFY_REL) and
    not at mu (1 + _CERTIFY_REL).  NonPositiveMargin, naming the first failing
    frequency, when L is indefinite, a margin is not positive or the bracket fails.
    """
    lo = gamma0 - _equivalence_gap(p, ks, gamma1)
    _require(lo > 0.0, ks, "L is not positive definite: gamma0 - sigma k/(1+k^2) <= 0")
    g, lam = _decay_pencil(p, ks, gamma0, gamma1)
    # a zero pivot or determinant is an answer here, not a fault: the inertia
    # certificate below judges every margin
    with np.errstate(divide="ignore", invalid="ignore"):
        mu = np.zeros_like(ks)
        _require(_positive_definite(g, lam, mu), ks, "no positive decay margin")
        for _ in range(_NEWTON_STEPS):
            step = _newton_step(g, lam, mu)
            mu = mu + step
            if np.all(np.abs(step) <= 1e-15 * mu):
                break
        bracket = (_positive_definite(g, lam, mu * (1.0 - _CERTIFY_REL))
                   & ~_positive_definite(g, lam, mu * (1.0 + _CERTIFY_REL)))
    _require(bracket, ks, "the inertia check does not bracket the decay margin")
    return mu


_DEFAULT_K_GRID = np.concatenate([np.geomspace(1e-3, 1e4, 140), [1e6, 1e9]])


def default_weights(p: ModelParams) -> LyapunovWeights:
    """Build the standard weight selection and measure its constants.

    The selection chain fixes eps0 = eps1 = 1/2, gamma1 = 4, eps2 = 1/16 and
    gamma0 at twice its strict lower bound, with the two Young constants
    C(eps0) = (beta-tau)^2/(4 eps0) and C(eps1, eps2) = tau^2/(4 eps2)
    + 1/(4 eps1).  equiv_lo/equiv_hi are gamma0 -/+ sigma/2, the exact
    extremes of L/E over states and frequencies (k/(1 + k^2) peaks at 1/2 at
    k = 1).  gamma5 is the least certified decay margin (_certified_margins)
    over a fixed grid of 140 frequencies from 1e-3 to 1e4 plus 1e6 and 1e9,
    widened by 0.1% against between-node variation.  All three agree with
    40-digit mpmath to about 2e-16.
    """
    eps0 = eps1 = 0.5
    gamma1 = 4.0
    eps2 = 1.0 / 16.0
    c_eps0 = (p.beta - p.tau) ** 2 / (4.0 * eps0)
    c_eps12 = p.tau**2 / (4.0 * eps2) + 1.0 / (4.0 * eps1)
    gamma0 = 2.0 * (c_eps0 + gamma1 * c_eps12) / (p.beta - p.tau)

    g5 = float(_certified_margins(p, _DEFAULT_K_GRID, gamma0, gamma1).min())
    gap = _equivalence_gap(p, 1.0, gamma1)

    # |V|^2 / E is diagonal in the (A, kB, kv) coordinates, so its extremes
    # over states are exact: 2*min/max(1, 1/(tau*(beta-tau))).
    q = 1.0 / (p.tau * (p.beta - p.tau))
    v_lo = 2.0 * min(1.0, q)
    v_hi = 2.0 * max(1.0, q)

    return LyapunovWeights(gamma0=gamma0, gamma1=gamma1, eps0=eps0, eps1=eps1,
                           eps2=eps2, gamma5=0.999 * g5, equiv_lo=gamma0 - gap,
                           equiv_hi=gamma0 + gap, v_lo=v_lo, v_hi=v_hi)


# ---------------------------------------------------------------------------
# dissipation identity and margin sweeps along trajectories
# ---------------------------------------------------------------------------

def _state_rates(p: ModelParams, state: ModeState) -> dict[str, np.ndarray]:
    """Time derivatives of E, F1, F2 via the chain rule and the mode ODE.

    Elementwise: a state of arrays gives arrays of rates.
    """
    k2 = state.k * state.k
    u, v, w_ = state.u_hat, state.v_hat, state.w_hat
    w_t = -(k2 * u + p.beta * k2 * v + w_) / p.tau
    (_, a), (_, b), _ = _v_forms(p.tau)
    A, B, A_t, B_t = a((u, v, w_)), b((u, v, w_)), a((v, w_, w_t)), b((v, w_, w_t))
    dE = ((np.conj(A) * A_t).real + p.tau * (p.beta - p.tau) * k2 * (np.conj(v) * w_).real
          + k2 * (np.conj(B) * B_t).real)
    dF1 = np.abs(A) ** 2 + (np.conj(B) * A_t).real
    dF2 = -p.tau * ((np.conj(w_) * A).real + (np.conj(v) * A_t).real)
    # scale from the magnitudes of the terms entering each product, so it does
    # not collapse when a derivative like A_t cancels to rounding noise
    a_t_mag = np.abs(w_) + p.tau * np.abs(w_t)
    scale = (np.abs(A) * a_t_mag + p.tau * (p.beta - p.tau) * k2 * np.abs(v) * np.abs(w_)
             + k2 * np.abs(B) * (np.abs(v) + p.tau * np.abs(w_))
             + (p.beta - p.tau) * k2 * np.abs(v) ** 2)
    return {"dE": dE, "dF1": dF1, "dF2": dF2, "scale": np.maximum(scale, 1e-300)}


def energy_dissipation_residual(p: ModelParams, init: ModeState, t):
    """(|dE/dt + (beta - tau) k^2 |v|^2|, scale) along the trajectory init starts, at time t.

    k is init.k.  scale is the magnitude of the terms of the identity, so
    residual / scale is its relative error.  t is a time or an array of
    times, evaluated with one kernel call; the pair is two floats or two
    arrays of t's shape.  Raises as solve_mode does.
    """
    state = solve_mode(p, init, t)
    rates = _state_rates(p, state)
    k2 = state.k * state.k
    res = np.abs(rates["dE"] + (p.beta - p.tau) * k2 * np.abs(state.v_hat) ** 2)
    if np.ndim(t) == 0:
        return float(res), float(rates["scale"])
    return res, rates["scale"]


def gronwall_margin(p: ModelParams, w: LyapunovWeights, k_grid,
                    init_samples, t_grid=None) -> float:
    """Largest gamma5 <= 1/tau with dL/dt + gamma5 rho L <= MARGIN_TOL * L on the sweep.

    The sweep evaluates dL/dt analytically along closed-form trajectories of
    every (frequency, initial state) pair over a dense time grid: one kernel
    call for the whole sweep.  Each point allows gamma5 up to
    (MARGIN_TOL L - dL/dt) / (rho L), so the answer is the least of these and
    1/tau.  Raises NonPositiveMargin when dL/dt exceeds MARGIN_TOL L somewhere
    or the least bound is not positive, EmptyInput on empty grids or when L = 0
    everywhere, InvalidInput unless init_samples iterates over ModeStates, by the
    frequency and time rules (k = 0 is skipped; a grid is not an iterator) and the
    grid rule's shape half (spectrum._grid; the sweep needs no order).
    """
    ks = _grid(_frequencies(k_grid), "frequency", None)
    samples = list(init_samples) if isinstance(init_samples, Iterable) else None
    if samples is None or not all(isinstance(s, ModeState) for s in samples):
        raise InvalidInput(f"sweep samples must be an iterable of ModeState, got {init_samples!r}")
    ts = _grid(_times(np.linspace(0.0, 25.0, 126) if t_grid is None else t_grid), "time", None)
    if ks.size == 0 or len(samples) == 0 or ts.size == 0:
        raise EmptyInput("gronwall margin sweep needs frequencies, samples and times")

    # samples are state vectors; the swept frequencies come from the grid
    ks = ks[ks != 0.0]
    y0 = np.array([(s.u_hat, s.v_hat, s.w_hat) for s in samples], dtype=complex).T[:, None]
    state = ModeState(*_evolve(p, ks, y0, ts), k=ks[:, None, None])
    vals, rates = functionals(p, state, w), _state_rates(p, state)
    dL = w.gamma0 * rates["dE"] + vals.rho * rates["dF1"] + w.gamma1 * vals.rho * rates["dF2"]
    # MARGIN_TOL L - dL/dt and rho L at the nondegenerate points; a NaN stays in and fails
    keep = ~(vals.lyap <= 1e-280)
    slack = MARGIN_TOL * vals.lyap[keep] - dL[keep]
    rho_l = (vals.rho * vals.lyap)[keep]
    if rho_l.size == 0:
        raise EmptyInput("all sweep points were degenerate (zero frequency or data)")
    if not np.all(slack >= 0.0):
        raise NonPositiveMargin("dL/dt exceeds tolerance even at gamma5 = 0")
    # a point whose rho L underflows to 0 bounds no gamma5, nor one whose bound overflows
    bounds = rho_l > 0.0
    with np.errstate(over="ignore"):
        g5 = float(np.min(slack[bounds] / rho_l[bounds], initial=1.0 / p.tau))
    if not g5 > 0.0:
        raise NonPositiveMargin("no positive decay margin found on the sweep")
    return g5


def pointwise_bound_constants(p: ModelParams, w: LyapunovWeights) -> tuple[float, float]:
    """(C, c) of the pointwise bound |V(t)|^2 <= C exp(-c rho(k) t) |V(0)|^2."""
    C = (w.equiv_hi / w.equiv_lo) * (w.v_hi / w.v_lo)
    return C, w.gamma5


def _trajectory_rows(p: ModelParams, k: float, data: DataTriple, ts: np.ndarray):
    """`mgt mode` rows (t, re_u, im_u, v_sq, energy, lyap) of the mode data starts at k."""
    weights = default_weights(p)
    state = solve_mode(p, ModeState(*(complex(prof([k])[0]) for prof in data), k=k), ts)
    f = functionals(p, state, weights)
    return zip(ts, state.u_hat.real, state.u_hat.imag, v_vector(p, state).norm_sq,
               f.energy, f.lyap)
