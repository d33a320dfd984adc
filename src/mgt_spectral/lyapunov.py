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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, NonPositiveMargin
from .mode_solver import ModeState, mode_coefficients, evaluate_mode, mode_matrix
from .params import ModelParams

#: One-sided slack, relative to the functional scale, in the margin sweeps.
MARGIN_TOL = 1e-10

# row vectors extracting A = v + tau*w, B = u + tau*v, and v from (u, v, w)
def _extractors(p: ModelParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    a = np.array([0.0, 1.0, p.tau])
    b = np.array([1.0, p.tau, 0.0])
    ev = np.array([0.0, 1.0, 0.0])
    return a, b, ev


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
    k2 = np.square(k)
    return k2 / (1.0 + k2)


def functionals(p: ModelParams, state: ModeState, w: LyapunovWeights) -> FunctionalValues:
    """Evaluate energy, the two cross functionals, and the Lyapunov combination."""
    k2 = state.k * state.k
    A = state.v_hat + p.tau * state.w_hat
    B = state.u_hat + p.tau * state.v_hat
    energy = 0.5 * (abs(A) ** 2 + p.tau * (p.beta - p.tau) * k2 * abs(state.v_hat) ** 2
                    + k2 * abs(B) ** 2)
    f1 = (np.conj(B) * A).real
    f2 = -p.tau * (np.conj(state.v_hat) * A).real
    r = k2 / (1.0 + k2)
    lyap = w.gamma0 * energy + r * f1 + w.gamma1 * r * f2
    return FunctionalValues(energy=float(energy), f1=float(f1), f2=float(f2),
                            lyap=float(lyap), rho=float(r))


# ---------------------------------------------------------------------------
# quadratic-form matrices (states as complex vectors z = (u, v, w)), stacked
# over a frequency array k as (n, 3, 3)
# ---------------------------------------------------------------------------

def _energy_matrix(p: ModelParams, k: np.ndarray) -> np.ndarray:
    a, b, ev = _extractors(p)
    k2 = np.square(k)[..., None, None]
    return 0.5 * (np.outer(a, a) + p.tau * (p.beta - p.tau) * k2 * np.outer(ev, ev)
                  + k2 * np.outer(b, b))


def _lyapunov_matrix(p: ModelParams, k: np.ndarray, w: LyapunovWeights) -> np.ndarray:
    a, b, ev = _extractors(p)
    r = rho(k)[..., None, None]
    f1m = 0.5 * (np.outer(b, a) + np.outer(a, b))
    f2m = -p.tau * 0.5 * (np.outer(ev, a) + np.outer(a, ev))
    return w.gamma0 * _energy_matrix(p, k) + r * f1m + w.gamma1 * r * f2m


def _pencil_eigvalsh(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of each symmetric-definite pencil (a, b) in a stack.

    Factors b = C C^T and takes the eigenvalues of C^-1 a C^-T, the same
    reduction LAPACK's sygv performs, batched over the leading axis.
    """
    c = np.linalg.cholesky(b)
    ca = np.linalg.solve(c, a)
    return np.linalg.eigvalsh(np.linalg.solve(c, np.swapaxes(ca, -1, -2)))


def _decay_margins(p: ModelParams, ks: np.ndarray, ml: np.ndarray) -> np.ndarray:
    """Exact state-minimum of (-dL/dt) / (rho L) at each frequency of ks."""
    phi = mode_matrix(p, ks)
    dmat = -(np.swapaxes(phi, -1, -2) @ ml + ml @ phi)
    return _pencil_eigvalsh(dmat, rho(ks)[:, None, None] * ml)[:, 0]


_DEFAULT_K_GRID = np.concatenate([np.geomspace(1e-3, 1e4, 140), [1e6, 1e9]])


def _positive_grid(k_grid: np.ndarray | None) -> np.ndarray:
    ks = _DEFAULT_K_GRID if k_grid is None else np.asarray(k_grid, dtype=float)
    ks = ks[ks > 0.0]
    if ks.size == 0:
        raise EmptyInput("the frequency grid holds no positive frequency")
    return ks


def default_weights(p: ModelParams, k_grid: np.ndarray | None = None) -> LyapunovWeights:
    """Build the standard weight selection and measure its constants.

    The selection chain fixes eps0 = eps1 = 1/2, gamma1 = 4, eps2 = 1/16 and
    gamma0 at twice its strict lower bound, with the two Young constants
    C(eps0) = (beta-tau)^2/(4 eps0) and C(eps1, eps2) = tau^2/(4 eps2)
    + 1/(4 eps1).  Equivalence constants are measured by exact optimization
    over states (a generalized eigenproblem) per grid frequency; gamma5 is
    the minimum decay margin over the same grid.
    """
    eps0 = eps1 = 0.5
    gamma1 = 4.0
    eps2 = 1.0 / 16.0
    c_eps0 = (p.beta - p.tau) ** 2 / (4.0 * eps0)
    c_eps12 = p.tau**2 / (4.0 * eps2) + 1.0 / (4.0 * eps1)
    gamma0 = 2.0 * (c_eps0 + gamma1 * c_eps12) / (p.beta - p.tau)

    probe = LyapunovWeights(gamma0=gamma0, gamma1=gamma1, eps0=eps0, eps1=eps1,
                            eps2=eps2, gamma5=0.0, equiv_lo=0.0, equiv_hi=0.0,
                            v_lo=0.0, v_hi=0.0)
    ks = _positive_grid(k_grid)
    ml = _lyapunov_matrix(p, ks, probe)
    ratios = _pencil_eigvalsh(ml, _energy_matrix(p, ks))
    # the rho -> 0 limit of L/E is exactly gamma0
    lo = min(float(ratios[:, 0].min()), gamma0)
    hi = max(float(ratios[:, -1].max()), gamma0)
    g5 = float(_decay_margins(p, ks, ml).min())
    if lo <= 0.0 or g5 <= 0.0:
        raise NonPositiveMargin(
            f"weight recipe failed: equiv_lo={lo:.3e}, gamma5={g5:.3e}")

    # |V|^2 / E is diagonal in the (A, kB, kv) coordinates, so its extremes
    # over states are exact: 2*min/max(1, 1/(tau*(beta-tau))).
    q = 1.0 / (p.tau * (p.beta - p.tau))
    v_lo = 2.0 * min(1.0, q)
    v_hi = 2.0 * max(1.0, q)

    # widen the grid-sampled constants slightly against between-node variation
    return LyapunovWeights(gamma0=gamma0, gamma1=gamma1, eps0=eps0, eps1=eps1,
                           eps2=eps2, gamma5=0.999 * g5,
                           equiv_lo=0.999 * lo, equiv_hi=1.001 * hi,
                           v_lo=v_lo, v_hi=v_hi)


def decay_margin_exact(p: ModelParams, w: LyapunovWeights,
                       k_grid: np.ndarray | None = None) -> float:
    """Minimum over a frequency grid of the exact per-mode decay margin."""
    ks = _positive_grid(k_grid)
    return float(_decay_margins(p, ks, _lyapunov_matrix(p, ks, w)).min())


# ---------------------------------------------------------------------------
# dissipation identity and margin sweeps along trajectories
# ---------------------------------------------------------------------------

def _state_rates(p: ModelParams, state: ModeState) -> dict[str, float]:
    """Time derivatives of E, F1, F2 via the chain rule and the mode ODE."""
    k2 = state.k * state.k
    u, v, w_ = state.u_hat, state.v_hat, state.w_hat
    w_t = -(k2 * u + p.beta * k2 * v + w_) / p.tau
    A = v + p.tau * w_
    B = u + p.tau * v
    A_t = w_ + p.tau * w_t
    B_t = v + p.tau * w_
    dE = ((np.conj(A) * A_t).real + p.tau * (p.beta - p.tau) * k2 * (np.conj(v) * w_).real
          + k2 * (np.conj(B) * B_t).real)
    dF1 = abs(A) ** 2 + (np.conj(B) * A_t).real
    dF2 = -p.tau * ((np.conj(w_) * A).real + (np.conj(v) * A_t).real)
    # scale from the magnitudes of the terms entering each product, so it does
    # not collapse when a derivative like A_t cancels to rounding noise
    a_t_mag = abs(w_) + p.tau * abs(w_t)
    scale = (abs(A) * a_t_mag + p.tau * (p.beta - p.tau) * k2 * abs(v) * abs(w_)
             + k2 * abs(B) * (abs(v) + p.tau * abs(w_))
             + (p.beta - p.tau) * k2 * abs(v) ** 2)
    return {"dE": float(dE), "dF1": float(dF1), "dF2": float(dF2),
            "scale": float(max(scale, 1e-300))}


def energy_dissipation_residual(p: ModelParams, k: float, init: ModeState,
                                t: float) -> float:
    """|dE/dt + (beta - tau) k^2 |v|^2| along the trajectory at time t."""
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"dissipation residual requires t >= 0, got {t}")
    coeffs = mode_coefficients(p, k, init)
    u, v, w_ = evaluate_mode(coeffs, k, t, n_derivatives=2)
    state = ModeState(u_hat=u, v_hat=v, w_hat=w_, k=k)
    rates = _state_rates(p, state)
    k2 = k * k
    return abs(rates["dE"] + (p.beta - p.tau) * k2 * abs(v) ** 2)


def dissipation_scale(p: ModelParams, k: float, init: ModeState, t: float) -> float:
    """Magnitude scale of the dissipation identity terms at time t."""
    state = solve_for_state(p, k, init, t)
    return _state_rates(p, state)["scale"]


def solve_for_state(p: ModelParams, k: float, init: ModeState, t: float) -> ModeState:
    coeffs = mode_coefficients(p, k, init)
    u, v, w_ = evaluate_mode(coeffs, k, t, n_derivatives=2)
    return ModeState(u_hat=u, v_hat=v, w_hat=w_, k=k)


def gronwall_margin(p: ModelParams, w: LyapunovWeights, k_grid,
                    init_samples, t_grid=None) -> float:
    """Largest gamma5 with dL/dt + gamma5 rho L <= MARGIN_TOL * L on the sweep.

    The sweep evaluates dL/dt analytically along closed-form trajectories for
    every (frequency, initial state) pair over a dense time grid and bisects
    gamma5 on [0, 1/tau].  Raises NonPositiveMargin when no positive value
    passes and EmptyInput on empty grids.
    """
    ks = np.asarray(list(k_grid), dtype=float)
    samples = list(init_samples)
    if ks.size == 0 or len(samples) == 0:
        raise EmptyInput("gronwall margin sweep needs frequencies and samples")
    ts = np.linspace(0.0, 25.0, 126) if t_grid is None else np.asarray(t_grid, dtype=float)

    neg_dldt = []
    rho_l = []
    margins = []
    for k in ks:
        if k <= 0.0:
            continue
        r = float(rho(k))
        for sample in samples:
            # samples are state vectors; the swept frequency comes from the grid
            init = ModeState(sample.u_hat, sample.v_hat, sample.w_hat, k=float(k))
            coeffs = mode_coefficients(p, float(k), init)
            for u, v, w_ in zip(*evaluate_mode(coeffs, float(k), ts, n_derivatives=2)):
                state = ModeState(u_hat=u, v_hat=v, w_hat=w_, k=float(k))
                vals = functionals(p, state, w)
                rates = _state_rates(p, state)
                dL = (w.gamma0 * rates["dE"] + vals.rho * rates["dF1"]
                      + w.gamma1 * vals.rho * rates["dF2"])
                if vals.lyap <= 1e-280:
                    continue
                neg_dldt.append(-dL)
                rho_l.append(r * vals.lyap)
                margins.append(MARGIN_TOL * vals.lyap)
    if not rho_l:
        raise EmptyInput("all sweep points were degenerate (zero frequency or data)")

    neg_dldt = np.array(neg_dldt)
    rho_l = np.array(rho_l)
    margins = np.array(margins)

    def passes(g5: float) -> bool:
        return bool(np.all(g5 * rho_l - neg_dldt <= margins))

    lo_g, hi_g = 0.0, 1.0 / p.tau
    if not passes(lo_g):
        raise NonPositiveMargin("dL/dt exceeds tolerance even at gamma5 = 0")
    if passes(hi_g):
        return hi_g
    for _ in range(80):
        mid = 0.5 * (lo_g + hi_g)
        if passes(mid):
            lo_g = mid
        else:
            hi_g = mid
    if lo_g <= 0.0:
        raise NonPositiveMargin("no positive decay margin found on the sweep")
    return lo_g


def pointwise_bound_constants(p: ModelParams, w: LyapunovWeights) -> tuple[float, float]:
    """(C, c) of the pointwise bound |V(t)|^2 <= C exp(-c rho(k) t) |V(0)|^2."""
    C = (w.equiv_hi / w.equiv_lo) * (w.v_hi / w.v_lo)
    return C, w.gamma5
