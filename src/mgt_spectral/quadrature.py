"""Deterministic adaptive quadrature for batched integrands.

adaptive_quadrature is Gauss-Kronrod (15 nodes, embedded 7-point Gauss) on
a bisection driver.  It accepts a maximum subinterval width, so that for an
integrand oscillating on a scale proportional to 1/t the initial partition
already resolves the oscillation and the error-driven bisection only has to
polish.  The integrand must be pointwise (each output depends only on its
own node).  It is called on flat arrays of at most _BLOCK_NODES nodes, the
15 nodes of consecutive intervals, which keeps the closed-form mode solver
vectorized while the memory of one call stays bounded however fine the
partition.  Interval sums are accumulated with compensated summation in a
fixed order, so results are bit-reproducible for fixed inputs.

_split_quadrature runs the same driver on an integrand given as a smooth
part plus harmonics of one phase (a Split), on panels of 17 Chebyshev-Lobatto
points with the 9 at even slots as the lower order.  The smooth part gets
Clenshaw-Curtis weights; each harmonic gets Levin collocation (D. Levin, Math.
Comp. 38, 1982): F' + i phase' F = amplitude is solved by a polynomial F, and
the integral is F e^{i phase} between the panel ends, exact for polynomial
amplitudes however fast the phase turns.  So panels follow the amplitudes and
no width cap is needed.  The error estimate of each part is the difference of
its two orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import QuadratureFailure

# 15-point Kronrod nodes and weights with the embedded 7-point Gauss rule
_XGK = np.array([
    0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
    0.7415311855993945, 0.5860872354676911, 0.4058451513773972,
    0.2077849550078985, 0.0,
])
_WGK = np.array([
    0.0229353220105292, 0.0630920926299786, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278,
])
_WG = np.array([
    0.1294849661688697, 0.2797053914892767, 0.3818300505051189,
    0.4179591836734694,
])

# full symmetric node/weight tables on [-1, 1]
_NODES = np.concatenate([-_XGK[:7], _XGK[::-1]])          # ascending, 15 nodes
_WK = np.concatenate([_WGK[:7], _WGK[::-1]])
_WGFULL = np.zeros(15)
_WGFULL[1:15:2] = np.concatenate([_WG[:3], _WG[::-1]])    # Gauss nodes sit at odd slots

#: Most nodes passed to the integrand in one call; the intervals of a batch are
#: evaluated in blocks of _BLOCK_INTERVALS, whole intervals per block.
_BLOCK_NODES = 2**14
_BLOCK_INTERVALS = _BLOCK_NODES // 15


@dataclass(frozen=True)
class QuadResult:
    value: float
    error: float
    n_nodes: int
    n_intervals: int


def _gk_batch(f: Callable[[np.ndarray], np.ndarray], lefts: np.ndarray,
              rights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kronrod values and |K15 - G7| error estimates for a batch of intervals.

    The integrand sees consecutive blocks of at most _BLOCK_NODES nodes, so
    memory stays bounded however many intervals the batch holds.
    """
    vals = np.empty(lefts.size)
    errs = np.empty(lefts.size)
    for lo in range(0, lefts.size, _BLOCK_INTERVALS):
        hi = lo + _BLOCK_INTERVALS
        half = 0.5 * (rights[lo:hi] - lefts[lo:hi])
        mid = 0.5 * (rights[lo:hi] + lefts[lo:hi])
        x = mid[:, None] + half[:, None] * _NODES[None, :]
        y = f(x.ravel()).reshape(x.shape)
        vals[lo:hi] = (y * _WK[None, :]).sum(axis=1) * half
        errs[lo:hi] = np.abs(vals[lo:hi] - (y * _WGFULL[None, :]).sum(axis=1) * half)
    return vals, errs


def adaptive_quadrature(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                        tol: float, *, max_width: float | None = None,
                        node_budget: int = 1_000_000,
                        initial_edges: np.ndarray | None = None,
                        min_intervals: int = 4) -> QuadResult:
    """Integrate a vectorized integrand over [a, b] to absolute tolerance tol.

    f maps a 1-d array of nodes to the integrand's values there, pointwise;
    it is called on blocks of at most _BLOCK_NODES nodes.

    max_width caps every subinterval of the initial partition (oscillation
    control); initial_edges may inject extra break points such as region
    boundaries.  Raises QuadratureFailure when the node budget cannot honor
    the width cap or the error target, and ValueError on b < a or on a tol or
    max_width that is not positive (NaN included).
    """
    return _adaptive(lambda lefts, rights: _gk_batch(f, lefts, rights), 15, a, b, tol,
                     max_width=max_width, node_budget=node_budget,
                     initial_edges=initial_edges, min_intervals=min_intervals)


def _adaptive(rule: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
              panel_nodes: int, a: float, b: float, tol: float, *, max_width: float | None,
              node_budget: int, initial_edges, min_intervals: int) -> QuadResult:
    """The bisection driver behind every rule: rule(lefts, rights) gives the
    value and error estimate of each interval from panel_nodes evaluations."""
    if not (b >= a):
        raise ValueError(f"bad interval [{a}, {b}]")
    if b == a:
        return QuadResult(0.0, 0.0, 0, 0)
    if not (tol > 0.0):
        raise ValueError(f"tol must be positive, got {tol}")
    if max_width is not None and not (max_width > 0.0):
        raise ValueError(f"max_width must be positive, got {max_width}")

    edges = [a, b] if initial_edges is None else sorted(
        {float(e) for e in initial_edges if a <= e <= b} | {a, b})
    pieces: list[np.ndarray] = []
    for lo, hi in zip(edges[:-1], edges[1:]):  # strictly ascending: a sorted set
        n = 1 if max_width is None else max(1, math.ceil((hi - lo) / max_width))
        n = max(n, math.ceil(min_intervals / max(1, len(edges) - 1)))
        if panel_nodes * n > node_budget:
            raise QuadratureFailure(
                f"width cap {max_width} needs {n} intervals on [{lo}, {hi}], "
                f"beyond the {node_budget}-node budget")
        pieces.append(np.linspace(lo, hi, n + 1))
    grid = np.unique(np.concatenate(pieces))
    lefts, rights = grid[:-1], grid[1:]

    n_nodes = panel_nodes * lefts.size
    if n_nodes > node_budget:
        raise QuadratureFailure("initial partition exceeds the node budget")
    vals, errs = rule(lefts, rights)

    while errs.sum() > tol:
        order = np.argsort(errs)[::-1]
        n_int = lefts.size
        worst = [i for i in order[:256] if errs[i] > 0.5 * tol / n_int]
        if not worst:
            break
        if n_nodes + 2 * panel_nodes * len(worst) > node_budget:
            raise QuadratureFailure(
                f"node budget {node_budget} exhausted at error {errs.sum():.3e} "
                f"(target {tol:.3e})")
        worst = np.array(worst, dtype=int)
        mids = 0.5 * (lefts[worst] + rights[worst])
        new_l = np.concatenate([lefts[worst], mids])
        new_r = np.concatenate([mids, rights[worst]])
        nv, ne = rule(new_l, new_r)
        n_nodes += panel_nodes * new_l.size
        keep = np.ones(n_int, dtype=bool)
        keep[worst] = False
        lefts = np.concatenate([lefts[keep], new_l])
        rights = np.concatenate([rights[keep], new_r])
        vals = np.concatenate([vals[keep], nv])
        errs = np.concatenate([errs[keep], ne])

    order = np.argsort(lefts, kind="stable")
    total = math.fsum(vals[order].tolist())
    return QuadResult(value=total, error=float(errs.sum()), n_nodes=n_nodes,
                      n_intervals=lefts.size)


# ---------------------------------------------------------------------------
# a smooth part plus harmonics of one phase
# ---------------------------------------------------------------------------

def _chebyshev_rule(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Chebyshev-Lobatto points cos(j pi / (n - 1)) on [-1, 1] (from +1 down to -1),
    their Clenshaw-Curtis weights and the differentiation matrix of their
    interpolating polynomial, for an odd n."""
    m = n - 1
    theta = np.pi * np.arange(n) / m
    x = np.cos(theta)
    w = np.empty(n)
    w[0] = w[-1] = 1.0 / (m * m - 1.0)
    v = np.ones(n - 2)
    for k in range(1, m // 2):
        v -= 2.0 * np.cos(2.0 * k * theta[1:-1]) / (4.0 * k * k - 1.0)
    v -= np.cos(m * theta[1:-1]) / (m * m - 1.0)
    w[1:-1] = 2.0 * v / m
    sign = np.where(np.arange(n) % 2, -1.0, 1.0) * np.where((np.arange(n) % m) == 0, 2.0, 1.0)
    diff = x[:, None] - x[None, :] + np.eye(n)
    d = np.outer(sign, 1.0 / sign) / diff
    d -= np.diag(d.sum(axis=1))
    return x, w, d


#: 17 Chebyshev-Lobatto points per panel; the 9 at even slots are the embedded
#: lower order.  Both include the panel ends, where a Levin rule reads its answer.
_X17, _W17, _D17 = _chebyshev_rule(17)
_, _W9, _D9 = _chebyshev_rule(9)
_PANEL_BLOCK = _BLOCK_NODES // 17


@dataclass(frozen=True)
class Split:
    """An integrand sampled at nodes as a smooth part plus harmonics of one phase:

        smooth + sum_m Re(amps[m - 1] e^{i m phase})   where `trusted`,
        plain                                          everywhere,

    with dphase the derivative of the phase.  Every field has the nodes' shape
    (amps one axis more, the harmonics first).
    """

    plain: np.ndarray
    trusted: np.ndarray
    smooth: np.ndarray
    amps: np.ndarray
    phase: np.ndarray
    dphase: np.ndarray


def _clenshaw_curtis(y: np.ndarray, half: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Order-17 values and |order 17 - order 9| of panels sampled at the 17 points."""
    hi_order = half * (y @ _W17)
    return hi_order, np.abs(hi_order - half * (y[:, ::2] @ _W9))


def _levin(amp: np.ndarray, phase: np.ndarray, dphase: np.ndarray, half: np.ndarray,
           d: np.ndarray) -> np.ndarray:
    """Re int amp e^{i phase} over each panel by Levin collocation at the points of d.

    F' + i phase' F = amp is collocated by a polynomial F; the integral is
    then [F e^{i phase}] between the panel ends, the first and last point.
    """
    n = amp.shape[-1]
    m = d + 1j * (half[:, None] * dphase)[:, :, None] * np.eye(n)
    f = np.linalg.solve(m, (half[:, None] * amp)[..., None])[..., 0]
    return (f[:, 0] * np.exp(1j * phase[:, 0]) - f[:, -1] * np.exp(1j * phase[:, -1])).real


def _split_batch(f: Callable[[np.ndarray], Split], lefts: np.ndarray,
                 rights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values and |order 17 - order 9| error estimates of a batch of panels.

    A panel whose nodes are all trusted sums Clenshaw-Curtis on the smooth
    part and, per harmonic, Levin collocation where the harmonic's phase turns
    by more than pi over the panel, or Clenshaw-Curtis where it turns less.
    Any other panel takes Clenshaw-Curtis on the plain values, and is split
    regardless of its error estimate while the plain integrand's phase (twice
    `phase`) turns by more than pi, as is a Levin panel on which the phase
    has a stationary point.
    """
    vals = np.empty(lefts.size)
    errs = np.empty(lefts.size)
    for lo in range(0, lefts.size, _PANEL_BLOCK):
        hi = lo + _PANEL_BLOCK
        half = 0.5 * (rights[lo:hi] - lefts[lo:hi])
        mid = 0.5 * (rights[lo:hi] + lefts[lo:hi])
        x = mid[:, None] + half[:, None] * _X17[None, :]
        s = f(x)
        turn = np.abs(np.diff(s.phase, axis=1)).sum(axis=1)
        val, err = _clenshaw_curtis(s.plain, half)
        err[2.0 * turn > np.pi] = np.inf
        split = s.trusted.all(axis=1)
        if split.any():
            hs, ts = half[split], turn[split]
            sval, serr = _clenshaw_curtis(s.smooth[split], hs)
            for m, amp in enumerate(s.amps[:, split], start=1):
                phase, dphase = m * s.phase[split], m * s.dphase[split]
                hval, herr = _clenshaw_curtis((amp * np.exp(1j * phase)).real, hs)
                lev = m * ts > np.pi
                if lev.any():
                    a, ph, dph, h = amp[lev], phase[lev], dphase[lev], hs[lev]
                    l17 = _levin(a, ph, dph, h, _D17)
                    l9 = _levin(a[:, ::2], ph[:, ::2], dph[:, ::2], h, _D9)
                    hval[lev], herr[lev] = l17, np.abs(l17 - l9)
                    stationary = dphase.min(axis=1) * dphase.max(axis=1) <= 0.0
                    herr[lev & stationary] = np.inf
                sval += hval
                serr += herr
            val[split], err[split] = sval, serr
        vals[lo:hi], errs[lo:hi] = val, err
    return vals, errs


def _split_quadrature(f: Callable[[np.ndarray], Split], a: float, b: float, tol: float,
                      initial_edges) -> QuadResult:
    """Integrate an integrand given as a Split over [a, b] to absolute tolerance tol.

    f maps an array of nodes to its Split there, pointwise.  No width cap:
    the Levin panels integrate the oscillating harmonics exactly for a
    polynomial amplitude, so panels only follow the smooth amplitudes.
    """
    return _adaptive(lambda lefts, rights: _split_batch(f, lefts, rights), 17, a, b, tol,
                     max_width=None, node_budget=1_000_000, initial_edges=initial_edges,
                     min_intervals=8)
