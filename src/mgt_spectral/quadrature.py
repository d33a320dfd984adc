"""Deterministic adaptive quadrature on panels of 17 Chebyshev-Lobatto points.

adaptive_quadrature is the one entry point.  The integrand maps a flat array
of nodes to its values there, pointwise, or to a Split, a smooth part plus
harmonics of one phase; the panel rule follows from what it returns.  A
panel's value is of order 17, its error estimate the difference from the
order 9 of the points at even slots; an infinite estimate forces bisection,
and a panel value that is not finite or a NaN estimate raises
QuadratureFailure.  The integrand sees blocks of at most _BLOCK_NODES nodes,
whole panels, which keeps the mode solver vectorized while memory stays
bounded however fine the partition.  A pass bisects every panel over its
share of the target, and math.fsum, correctly rounded and so order-free, sums
the panel values and error estimates: a result depends on the final partition
alone, and is bit-reproducible for fixed inputs and any block size.

Values are integrated by Clenshaw-Curtis weights, as accurate per node as
Gauss on integrands like these (L. N. Trefethen, SIAM Rev. 50, 2008).  A
Split takes Clenshaw-Curtis on its smooth part, and on each harmonic Levin
collocation (D. Levin, Math. Comp. 38, 1982): F' + i phase' F = amplitude is
solved by a polynomial F, phase' read from the phase's interpolant, and the
integral is F e^{i phase} between the panel ends, exact for polynomial
amplitudes on a linear phase however fast it turns.  So panels follow the
amplitudes and no width cap is needed; a caller that knows an oscillation's
scale may still seed the partition through initial_edges.  The Split serves
every decay norm and the three oscillating integral-lemma kernels.

The collocation systems go to LAPACK (batched np.linalg.solve), the one LAPACK
call on the norm path; it pages in 764 KB of numpy's OpenBLAS over one
decay_curves cycle of bench/run.py (smaps diffs).  A numpy-only batched
elimination with partial pivoting agreed to 1e-14 but took 0.43-0.84 ms against
0.076 ms a call for ten complex 17x17 systems (2-vCPU x86-64 guest).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidInput, QuadratureFailure

#: Most nodes passed to the integrand in one call, whole panels per call.
_BLOCK_NODES = 2**14
#: Most nodes one integral may evaluate, and fewest panels it starts from.
_NODE_BUDGET = 1_000_000
_MIN_INTERVALS = 8


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


@dataclass(frozen=True)
class QuadResult:
    value: float
    error: float
    n_nodes: int
    n_intervals: int


def _clenshaw_curtis(y: np.ndarray, half: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Order-17 values and |order 17 - order 9| of panels sampled at the 17 points
    (the last axis of y); an infinite sample makes the estimate NaN, which _panels reports."""
    hi_order = half * (y * _W17).sum(axis=-1)
    with np.errstate(invalid="ignore"):
        return hi_order, np.abs(hi_order - half * (y[..., ::2] * _W9).sum(axis=-1))


def _real(x) -> bool:
    """Whether x is a real number; a bool is not one."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _tolerance(tol) -> None:
    """InvalidInput unless tol is a finite number > 0: the one tolerance rule."""
    if not (_real(tol) and 0.0 < tol < math.inf):
        raise InvalidInput(f"tolerance must be a finite number > 0, got {tol!r}")


def _fsum(x: np.ndarray) -> float:
    """math.fsum of x, correctly rounded so order-free; QuadratureFailure past the float range."""
    try:
        return math.fsum(x.tolist())
    except OverflowError:
        raise QuadratureFailure("a sum over the panels passes the float range") from None


def adaptive_quadrature(f: Callable[[np.ndarray], np.ndarray | Split], a: float, b: float,
                        tol: float, *, initial_edges=None) -> QuadResult:
    """Integrate a vectorized integrand over [a, b] to absolute tolerance tol.

    f maps a flat array of nodes to the integrand's values there, or to its
    Split there, pointwise; it is called on blocks of at most _BLOCK_NODES
    nodes.  initial_edges may inject break points such as double roots or a
    partition that resolves a known oscillation; the initial partition is
    those in [a, b], each piece cut into equal panels, _MIN_INTERVALS at least
    in all.  Each pass bisects every panel whose error exceeds half of tol's
    share per panel.  Raises QuadratureFailure when the initial partition or
    the error target needs more than _NODE_BUDGET nodes, the target lies below
    the rounding of the panel values or the integrand is not finite;
    InvalidInput unless a <= b are finite numbers, not bools, and initial_edges
    are numbers other than NaN, and by the tolerance rule (_tolerance) on tol.
    """
    _tolerance(tol)
    if not (_real(a) and _real(b) and -math.inf < a <= b < math.inf):
        raise InvalidInput(f"bad interval [{a!r}, {b!r}]")
    try:
        edges = np.asarray([] if initial_edges is None else initial_edges, dtype=float).ravel()
    except (TypeError, ValueError):
        edges = None
    if edges is None or np.isnan(edges).any():
        raise InvalidInput(f"initial edges must be numbers other than NaN, got {initial_edges!r}")
    if b == a:
        return QuadResult(0.0, 0.0, 0, 0)

    edges = np.array(sorted({a, b, *edges[(edges >= a) & (edges <= b)].tolist()}), dtype=float)
    n = -(-_MIN_INTERVALS // (edges.size - 1))  # equal panels per piece
    # the points of np.linspace(lo, hi, n + 1) on every piece at once
    lefts = (edges[:-1, None] + np.arange(n) * (np.diff(edges) / n)[:, None]).ravel()
    rights = np.append(lefts[1:], b)

    n_nodes = _X17.size * lefts.size
    if n_nodes > _NODE_BUDGET:
        raise QuadratureFailure(f"initial partition of {lefts.size} panels exceeds the "
                                f"{_NODE_BUDGET}-node budget")
    vals, errs = _panels(f, lefts, rights)

    while (error := _fsum(errs)) > tol:
        # each panel value is rounded to about eps of itself, so no bisection meets a
        # target below eps times their summed magnitudes (multiple 1: rounding alone)
        floor = np.finfo(float).eps * _fsum(np.abs(vals))
        if tol < floor:
            raise QuadratureFailure(f"target {tol:.3e} lies below the rounding floor {floor:.3e}")
        # the largest error exceeds tol / n, so at least one panel is bisected
        split = errs > 0.5 * tol / lefts.size
        mids = 0.5 * (lefts[split] + rights[split])
        new_l, new_r = np.concatenate([lefts[split], mids]), np.concatenate([mids, rights[split]])
        n_nodes += _X17.size * new_l.size
        if n_nodes > _NODE_BUDGET:
            raise QuadratureFailure(
                f"node budget {_NODE_BUDGET} exhausted at error {error:.3e} (target {tol:.3e})")
        nv, ne = _panels(f, new_l, new_r)
        lefts, rights, vals, errs = (np.concatenate([old[~split], new]) for old, new in
                                     ((lefts, new_l), (rights, new_r), (vals, nv), (errs, ne)))

    return QuadResult(value=_fsum(vals), error=error, n_nodes=n_nodes, n_intervals=lefts.size)


def _panels(f: Callable, lefts: np.ndarray, rights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values and error estimates of a batch of panels, from f on consecutive
    blocks of at most _BLOCK_NODES nodes, so memory stays bounded however many
    panels the batch holds."""
    vals, errs = np.empty(lefts.size), np.empty(lefts.size)
    step = _BLOCK_NODES // _X17.size
    for lo in range(0, lefts.size, step):
        hi = lo + step
        half = 0.5 * (rights[lo:hi] - lefts[lo:hi])
        x = 0.5 * (rights[lo:hi] + lefts[lo:hi])[:, None] + half[:, None] * _X17
        y = f(x.ravel())
        vals[lo:hi], errs[lo:hi] = (_split_batch(y, half) if isinstance(y, Split)
                                    else _clenshaw_curtis(np.reshape(y, x.shape), half))
    bad = ~np.isfinite(vals) | np.isnan(errs)
    if bad.any():
        i = np.argmax(bad)
        raise QuadratureFailure(f"integrand or its error estimate is not finite on "
                                f"[{lefts[i]}, {rights[i]}]")
    return vals, errs


# ---------------------------------------------------------------------------
# a smooth part plus harmonics of one phase
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Split:
    """An integrand sampled at nodes as a smooth part plus harmonics of one phase:

        smooth + sum_m Re(amps[m - 1] e^{i m phase})   where `trusted`,
        plain                                          everywhere.

    Every field has the nodes' shape (amps one axis more, the harmonics
    first).  The phase's derivative is read from its samples, so the phase
    need only be smooth on a panel.  Where a node is not trusted the plain
    values are integrated; their phase is taken to be the highest
    harmonic's, len(amps) times `phase`.  smooth and amps are read only on
    panels whose nodes are all trusted, so entries off `trusted` are never
    read and may be anything, inf and NaN included.
    """

    plain: np.ndarray
    trusted: np.ndarray
    smooth: np.ndarray
    amps: np.ndarray
    phase: np.ndarray


def _levin(amp: np.ndarray, phase: np.ndarray, half: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Re int amp e^{i phase} over each panel by Levin collocation at the points of d.

    F' + i phase' F = amp is collocated by a polynomial F, phase' read from the
    phase's interpolant (by einsum, which pages in no BLAS); the integral is
    then [F e^{i phase}] between the panel ends, the first and last point.
    """
    rate = np.einsum("ij,pj->pi", d, phase)
    m = d + 1j * rate[:, :, None] * np.eye(amp.shape[-1])
    f = np.linalg.solve(m, (half[:, None] * amp)[..., None])[..., 0]
    return (f[:, 0] * np.exp(1j * phase[:, 0]) - f[:, -1] * np.exp(1j * phase[:, -1])).real


def _split_batch(s: Split, half: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values and |order 17 - order 9| of the panels of half-widths `half` on
    which s is sampled, 17 nodes a panel in order.

    A panel whose nodes are all trusted sums Clenshaw-Curtis on the smooth
    part and, per harmonic, Levin collocation where the harmonic's phase turns
    by more than pi over the panel, or Clenshaw-Curtis where it turns less.
    Any other panel takes Clenshaw-Curtis on the plain values, and is split
    regardless of its error estimate while the plain integrand's phase (the
    highest harmonic's) turns by more than pi, as is a Levin panel on which
    the phase's 17-point interpolant has a stationary point.  Samples that are
    not finite give panel values that are not, silently: _panels raises on them.
    """
    shape = (half.size, _X17.size)
    plain, trusted, smooth, phase = (np.reshape(v, shape) for v in (
        s.plain, s.trusted, s.smooth, s.phase))
    amps = np.reshape(s.amps, (len(s.amps),) + shape)
    turn = np.abs(np.diff(phase, axis=1)).sum(axis=1)
    with np.errstate(invalid="ignore"):
        val, err = _clenshaw_curtis(plain, half)
        err[len(amps) * turn > np.pi] = np.inf
        split = trusted.all(axis=1)
        if split.any():
            hs, ts, ps = half[split], turn[split], phase[split]
            dp = np.einsum("ij,pj->pi", _D17, ps)
            with np.errstate(over="ignore"):  # a product of two phase slopes past 1e154
                stationary = dp.min(axis=1) * dp.max(axis=1) <= 0.0
            sval, serr = _clenshaw_curtis(smooth[split], hs)
            # every harmonic at once: one Levin solve per order for the whole batch
            ms = np.arange(1, len(amps) + 1)
            amp, ph = amps[:, split], ms[:, None, None] * ps
            hval, herr = _clenshaw_curtis((amp * np.exp(1j * ph)).real, hs)
            lev = ms[:, None] * ts > np.pi
            if lev.any():
                a, p, h = amp[lev], ph[lev], np.broadcast_to(hs, lev.shape)[lev]
                l17 = _levin(a, p, h, _D17)
                l9 = _levin(a[:, ::2], p[:, ::2], h, _D9)
                hval[lev], herr[lev] = l17, np.abs(l17 - l9)
                herr[lev & stationary] = np.inf
            for hv, he in zip(hval, herr):  # summed harmonic by harmonic, in order
                sval += hv
                serr += he
            val[split], err[split] = sval, serr
    return val, err
