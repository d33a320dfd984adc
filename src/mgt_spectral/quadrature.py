"""Deterministic adaptive Gauss-Kronrod quadrature for batched integrands.

The norm integrands oscillate on a scale proportional to 1/t, so the driver
accepts a maximum subinterval width: the initial partition already resolves
the oscillation and the error-driven bisection only has to polish.  The
integrand must be pointwise (each output depends only on its own node).  It
is called on flat arrays of at most _BLOCK_NODES nodes, the 15 nodes of
consecutive intervals, which keeps the closed-form mode solver vectorized
while the memory of one call stays bounded however fine the partition.
Interval sums are accumulated with compensated summation in a fixed order,
so results are bit-reproducible for fixed inputs.
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
        if 15 * n > node_budget:
            raise QuadratureFailure(
                f"width cap {max_width} needs {n} intervals on [{lo}, {hi}], "
                f"beyond the {node_budget}-node budget")
        pieces.append(np.linspace(lo, hi, n + 1))
    grid = np.unique(np.concatenate(pieces))
    lefts, rights = grid[:-1], grid[1:]

    n_nodes = 15 * lefts.size
    if n_nodes > node_budget:
        raise QuadratureFailure("initial partition exceeds the node budget")
    vals, errs = _gk_batch(f, lefts, rights)

    while errs.sum() > tol:
        order = np.argsort(errs)[::-1]
        n_int = lefts.size
        worst = [i for i in order[:256] if errs[i] > 0.5 * tol / n_int]
        if not worst:
            break
        if n_nodes + 30 * len(worst) > node_budget:
            raise QuadratureFailure(
                f"node budget {node_budget} exhausted at error {errs.sum():.3e} "
                f"(target {tol:.3e})")
        worst = np.array(worst, dtype=int)
        mids = 0.5 * (lefts[worst] + rights[worst])
        new_l = np.concatenate([lefts[worst], mids])
        new_r = np.concatenate([mids, rights[worst]])
        nv, ne = _gk_batch(f, new_l, new_r)
        n_nodes += 15 * new_l.size
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
