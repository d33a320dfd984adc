"""Eigenvalues of the per-frequency mode matrix and their classification.

At frequency magnitude k the first-order system for (u, u_t, u_tt) in
frequency space has the 3x3 matrix

    Phi(k) = [[0, 1, 0], [0, 0, 1], [-k^2/tau, -beta k^2/tau, -1/tau]]

whose characteristic polynomial is the cubic

    p(lam) = tau*lam^3 + lam^2 + beta*k^2*lam + k^2.

One batched kernel, _cubic_roots_batch, factors the cubic in real arithmetic:
one real root per frequency, from Cardano's formula (or one trigonometric
branch where all three roots are real) and Newton polishing on the original
polynomial, and the quadratic factor it leaves (Vieta).  The mode kernel
propagates with that factor directly; the other two roots are read off it,
so the three satisfy the Vieta sums to the residual of the real root: at
any k, and however close they are near m1, m2 and the critical ratio.  One
batched path (_spectrum) makes the root-and-pattern decision for
eigenvalues, atlas and the `mgt verify` sweep, elementwise in tau
and beta as in k^2, so that a float parameter record is the batch of one:
roots within TOL_CONFLUENT of each other are a double root, and within
TOL_BOUNDARY of the critical ratio's triple point the triple root is -1/(3 tau).
Both windows are relative, so at (s tau, s beta, k/s) each root is lam/s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import EmptyInput, GridError, InvalidFrequency
from .params import ModelParams, _critical, _triple_numerator

#: Relative residual budget for returned roots: |p(lam)| <= TOL_RESIDUAL * scale.
TOL_RESIDUAL = 1e-9

#: Two roots closer than TOL_CONFLUENT * |alpha| (alpha: their mean) form a double root.
TOL_CONFLUENT = 1e-7

#: At the critical ratio, k^2 within TOL_BOUNDARY * m of the triple point m is the triple root.
TOL_BOUNDARY = 1e-11

#: Largest beta*k^2/tau the closed-form roots take: beyond it the cube of the
#: depressed-cubic coefficient overflows.
MAX_STIFFNESS = 1e102


class RootPattern(Enum):
    REAL_PLUS_PAIR = "RealPlusPair"
    THREE_DISTINCT_REAL = "ThreeDistinctReal"
    REAL_WITH_DOUBLE = "RealWithDouble"
    TRIPLE_REAL = "TripleReal"


@dataclass(frozen=True)
class SpectrumPoint:
    """The three eigenvalues at one frequency magnitude.

    eigenvalues() labels them canonically: the real root first when a
    conjugate pair exists (the pair member with Im >= 0 second), all-real
    triples in ascending order.  atlas() labels them for branch continuity.
    """

    k: float
    lambdas: tuple[complex, complex, complex]
    pattern: RootPattern


@dataclass(frozen=True)
class AsymptoticTriple:
    """Truncated eigenvalue expansion at small or large frequency."""

    k: float
    lambdas_approx: tuple[complex, complex, complex]
    order: int


def _nonnegative(x, name: str, error: type) -> np.ndarray:
    """x as a float array; `error` names the first entry that is not a finite number >= 0."""
    try:
        raw = np.asarray(x)  # dtype=float would read None as NaN; float() rejects it
        xs = (np.array([float(v) for v in raw.flat]).reshape(raw.shape) if raw.dtype == object
              else np.asarray(x, dtype=float))
    except (TypeError, ValueError) as exc:
        raise error(f"{name} must be a number, got {x!r}") from exc
    bad = ~(np.isfinite(xs) & (xs >= 0.0))
    if bad.any():
        raise error(f"{name} must be finite and >= 0, got {xs[bad][0]}")
    return xs


def _frequencies(k) -> np.ndarray:
    """The frequency rule: k as a float array, InvalidFrequency unless finite and >= 0."""
    return _nonnegative(k, "frequency magnitude", InvalidFrequency)


def _frequency(k) -> float:
    """One frequency magnitude as a float, by the rule of _frequencies."""
    ks = _frequencies(k)
    if ks.ndim:
        raise InvalidFrequency(f"frequency magnitude must be a number, got {k!r}")
    return float(ks)


def _grid(xs: np.ndarray, name: str, order: str | None) -> np.ndarray:
    """The grid rule on a float array xs: one-dimensional (GridError) and, unless order is
    None, nonempty (EmptyInput) and "ascending" or "strictly ascending" (GridError)."""
    if xs.ndim != 1:
        raise GridError(f"{name} grid must be one-dimensional, got shape {xs.shape}")
    if order and xs.size == 0:
        raise EmptyInput(f"empty {name} grid")
    steps = np.diff(xs)
    if order and np.any(steps <= 0.0 if order.startswith("strictly") else steps < 0.0):
        raise GridError(f"{name} grid must be {order}")
    return xs


def characteristic_residual(p: ModelParams, lam: complex, k: float) -> tuple[float, float]:
    """Return (|p(lam)|, scale) with scale the sum of term magnitudes, elementwise."""
    k2 = np.square(_frequencies(k))
    val = p.tau * lam**3 + lam**2 + p.beta * k2 * lam + k2
    scale = p.tau * abs(lam) ** 3 + abs(lam) ** 2 + p.beta * k2 * abs(lam) + k2
    return abs(val), np.maximum(scale, 1e-300)


# ---------------------------------------------------------------------------
# closed-form root computation
# ---------------------------------------------------------------------------

def _cube(x):
    """x**3 rounded as Python rounds it, for a float or each entry of an array:
    numpy's vectorised power may differ in the last bit."""
    return x**3 if np.ndim(x) == 0 else (np.asarray(x, dtype=object) ** 3).astype(float)


def _cubic_roots_batch(tau: float, beta: float, k2: np.ndarray) -> tuple:
    """The factor (a, b, c, lam, alpha, q) of the cubic for an array of k2 >= 0.

    z^3 + a z^2 + b z + c is the characteristic cubic divided by tau, lam one
    real root of each row and (z - alpha)^2 - q the quadratic factor it leaves
    (_deflate); a is a float for float tau and beta, else rows like the rest.
    lam is the real root of a pair row (Cardano) and, where all three roots
    are real, the one farthest from the other two (one trigonometric branch),
    so the factor holds the closest two.  lam gets two Newton steps on the
    original polynomial, each kept only where it lowers the residual, and is
    exactly -a at k = 0.  Raises InvalidFrequency where beta*k2/tau exceeds
    MAX_STIFFNESS, naming the bound on k of the stiffest row.
    """
    k2 = np.atleast_1d(np.asarray(k2, dtype=float))
    a = 1.0 / tau
    b = beta * k2 / tau
    if not (b <= MAX_STIFFNESS).all():
        i = np.argmax(b)  # the stiffest row, or the first NaN
        k_max = np.broadcast_to(np.sqrt(MAX_STIFFNESS * tau / beta), b.shape).flat[i]
        raise InvalidFrequency(
            f"beta*k^2/tau must not exceed {MAX_STIFFNESS:.0e} (k <= "
            f"{k_max:.3e} here); got {b.flat[i]:.3e}")
    c = k2 / tau

    Q = (a * a - 3.0 * b) / 9.0
    R = (2.0 * _cube(a) - 9.0 * a * b + 27.0 * c) / 54.0
    R2 = R * R
    Q3 = Q**3
    # boundary R2 == Q3 lands on the Cardano branch.  At small k, R2 and Q3 agree
    # to rounding and may call a pair three real roots, one of them positive, so
    # a row is also a pair where the discriminant over k2,
    # -4 + (18 tau beta + beta^2 - 27 tau^2) k2 - 4 tau beta^3 k2^2, is well
    # below zero (-4 at k = 0; near 0 only close to the thresholds m1, m2)
    disc = (-4.0 + (18.0 * tau * beta + beta * beta - 27.0 * tau * tau) * k2
            - 4.0 * tau * _cube(beta) * k2 * k2)
    is_pair = (R2 >= Q3) | (disc < -1.0)

    lam = np.empty(Q.shape)
    # the real root of a pair row (Cardano), plus a/3 until the shift below
    Qp, Rp = Q[is_pair], R[is_pair]
    S = -np.sign(Rp) * np.cbrt(np.abs(Rp) + np.sqrt(np.maximum(R2[is_pair] - Q3[is_pair], 0.0)))
    lam[is_pair] = S + np.where(S != 0.0, Qp / np.where(S != 0.0, S, 1.0), 0.0)
    # three real roots -2 sqrt(Q) cos((theta + 2 pi j)/3) - a/3: the smallest (j = 0)
    # lies farthest from the others where theta < pi/2, else the largest (j = 1)
    Qt = Q[~is_pair]
    theta = np.arccos(np.clip(R[~is_pair] / np.sqrt(Qt**3), -1.0, 1.0))
    theta = np.where(theta < 0.5 * np.pi, theta, theta + 2.0 * np.pi)
    lam[~is_pair] = -2.0 * np.sqrt(Qt) * np.cos(theta / 3.0)
    lam -= a / 3.0

    def residual(z):
        return tau * (z * z * z) + z * z + beta * k2 * z + k2

    for _ in range(2):
        f = residual(lam)
        df = 3.0 * tau * lam**2 + 2.0 * lam + beta * k2
        ok = np.abs(df) > 1e-300
        cand = lam - np.where(ok, f / np.where(ok, df, 1.0), 0.0)
        lam = np.where(np.abs(residual(cand)) <= np.abs(f), cand, lam)
    # exactly -a at k = 0, so that the decoupled u'' row of the mode propagates exactly
    lam = np.where(c == 0.0, -a, lam)
    return (a, b, c, lam) + _deflate(a, b, c, lam)


def _deflate(a, b, c, lam) -> tuple:
    """(alpha, q) with (z - alpha)^2 - q the quadratic factor left after dividing
    z^3 + a z^2 + b z + c by z - lam, for a real root lam (Vieta)."""
    # a + lam cancels at small k, (s - b)/lam where s is close to b
    s = -c / lam
    use_sum = (a + np.abs(lam)) * np.abs(lam) <= np.abs(s) + b
    alpha = -0.5 * np.where(use_sum, a + lam, (s - b) / lam)
    return alpha, alpha * alpha - s


def _upper_root(c, lam, alpha, q):
    """alpha + sqrt(q), the larger root of a real factor (z - alpha)^2 - q (q > 0), else
    alpha.  It is taken from the product s = -c/lam of the factor's roots as
    s/(alpha - sqrt(q)): alpha < 0, so that difference does not cancel, while
    alpha + sqrt(q) does where the two roots lie far apart (large beta/tau), and q =
    alpha^2 - s has lost s there."""
    real = q > 0.0
    return np.where(real, (-c / lam) / np.where(real, alpha - np.sqrt(np.abs(q)), -1.0), alpha)


#: RootPattern by the sign of q (-1, 0, +1) in _route_confluent, then the triple root.
_PATTERNS = np.array([RootPattern.REAL_PLUS_PAIR, RootPattern.REAL_WITH_DOUBLE,
                      RootPattern.THREE_DISTINCT_REAL, RootPattern.TRIPLE_REAL], dtype=object)


def _route_confluent(p: ModelParams, k2: np.ndarray,
                     factor: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(roots, patterns) from the _cubic_roots_batch factor: each row's real root
    lam and the roots of the quadratic factor (z - alpha)^2 - q it leaves, as
    an (n, 3) complex array in canonical order, and the RootPattern of every row.

    The factor is a conjugate pair where q < 0, a double root where q = 0
    (k = 0) and two more real roots otherwise; so each row's Vieta sums hold
    to the residual of its real root, however close the three roots are.  (A
    pair polished on its own carries an absolute error of about eps*|lam2|,
    which swamps its O(1) real part at large k and its O(k) imaginary part
    at small k.)
    A factor whose roots lie closer than TOL_CONFLUENT * |alpha|, which happens
    only next to m1 or m2, is the double root alpha (q := 0).  At the critical
    ratio (params._critical), on either side of 1/9, k^2 within TOL_BOUNDARY * m of the
    row's own triple point m (params._triple_numerator) is the triple root -1/(3 tau).
    """
    c, lam, alpha, q = factor[2:]
    s = p.ratio
    m = _triple_numerator(s) / (8.0 * p.beta * p.tau)
    triple = _critical(s) & (np.abs(k2 - m) <= TOL_BOUNDARY * m)
    q = np.where(2.0 * np.sqrt(np.abs(q)) <= TOL_CONFLUENT * np.abs(alpha), 0.0, q)

    r = np.sqrt(np.abs(q))
    lam2 = alpha + 1j * r
    roots = np.where((q < 0.0)[:, None], np.stack([lam, lam2, np.conj(lam2)], axis=1),
                     np.sort(np.stack([lam, alpha - r, _upper_root(c, lam, alpha, q)], axis=1),
                             axis=1))
    roots[triple] = np.broadcast_to(-1.0 / (3.0 * p.tau), triple.shape)[triple, None]
    return roots, _PATTERNS[np.where(triple, 3, np.sign(q).astype(int) + 1)]


def _spectrum(p: ModelParams, k2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(roots, patterns) for an array of k2 >= 0: canonical roots of each row
    and its RootPattern, the one path behind eigenvalues, atlas and the
    `mgt verify` sweep; p's tau and beta are floats or rows like k2."""
    return _route_confluent(p, k2, _cubic_roots_batch(p.tau, p.beta, k2))


def eigenvalues(p: ModelParams, k: float) -> SpectrumPoint:
    """All three eigenvalues of Phi(k) with canonical labeling.

    A batch of one through the path atlas takes.  The roots are backward
    accurate: the exact roots of a cubic whose tau/beta and k^2 lie within
    TOL_CRITICAL and TOL_BOUNDARY of the input inside the confluent windows
    (and a double root where two lie within TOL_CONFLUENT), within TOL_RESIDUAL
    outside them.  The forward error is that perturbation's root spread: at
    (tau, beta) = (0.1111111111111, 1) and k = 1.7320508075688772 the triple
    root -3.0000000000003 is returned, while those floats' exact roots are
    -3.000139 and -2.999930 +- 1.21e-4 i, 4e-5 relative: the cube root of
    tau/beta's 1e-13 offset from 1/9.  Raises InvalidFrequency on negative or
    non-finite k, and where beta*k^2/tau exceeds MAX_STIFFNESS.
    """
    k = _frequency(k)
    roots, patterns = _spectrum(p, np.array([k * k]))
    return SpectrumPoint(k=k, lambdas=tuple(complex(z) for z in roots[0]), pattern=patterns[0])


def asymptotic_small_k(p: ModelParams, k: float) -> AsymptoticTriple:
    """Small-frequency expansion: lam1 ~ -1/tau, pair ~ +-ik - (beta-tau)k^2/2."""
    k = _frequency(k)
    damp = 0.5 * (p.beta - p.tau) * k * k
    lam2 = complex(-damp, k)
    return AsymptoticTriple(k=k, lambdas_approx=(-1.0 / p.tau, lam2, lam2.conjugate()), order=2)


def asymptotic_large_k(p: ModelParams, k: float) -> AsymptoticTriple:
    """Large-frequency expansion: lam1 ~ -1/beta, pair ~ -(beta-tau)/(2 beta tau) +- ik sqrt(beta/tau)."""
    if (k := _frequency(k)) == 0.0:
        raise InvalidFrequency("large-frequency expansion needs k > 0, got 0.0")
    re = -(p.beta - p.tau) / (2.0 * p.beta * p.tau)
    im = k * math.sqrt(p.beta / p.tau)
    lam2 = complex(re, im)
    return AsymptoticTriple(k=k, lambdas_approx=(-1.0 / p.beta, lam2, lam2.conjugate()), order=2)


#: The six orderings of a triple, identity first.
_PERMS = np.array([(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)])


def atlas(p: ModelParams, k_grid: Sequence[float]) -> list[SpectrumPoint]:
    """Eigenvalues along an ascending grid, relabeled for branch continuity.

    One root call covers the grid.  Each node's canonical triple is then
    ordered by the permutation that moves it least, in total displacement,
    from the previous node's ordered triple (the first tie wins), so every
    labeled sequence is a continuous function of k.  The three displacements
    are summed in ascending order, so a total depends only on their values:
    where a conjugate pair meets the real axis, |x - z| = |x - conj(z)| and
    the two assignments tie exactly, whatever the last bits of the roots.
    Values and patterns agree with eigenvalues() up to permutation, under its
    backward-error contract.  Entries follow the frequency rule, and the grid the
    grid rule (_grid), ascending.
    """
    ks = _grid(_frequencies(k_grid), "frequency", "ascending")

    roots, patterns = _spectrum(p, ks * ks)
    # best[i, a] = argmin_b cost[i, a, b], where cost[i, a, b] is the displacement
    # of triple i under permutation b from triple i-1 under permutation a
    moved = roots[1:, _PERMS]
    best = np.empty((ks.size - 1, len(_PERMS)), dtype=int)
    for a, perm in enumerate(_PERMS):
        cost = np.sort(np.abs(moved - roots[:-1, None, perm]), axis=2).sum(axis=2)
        best[:, a] = cost.argmin(axis=1)
    chosen = [0]
    for row in best.tolist():
        chosen.append(row[chosen[-1]])
    lams = np.take_along_axis(roots, _PERMS[chosen], axis=1)
    return [SpectrumPoint(k=float(k), lambdas=tuple(row), pattern=pattern)
            for k, row, pattern in zip(ks, lams, patterns)]


def atlas_rows(points: Sequence[SpectrumPoint]) -> list[tuple]:
    """Rows (k, re/im of each branch, pattern name) for serialization."""
    rows = []
    for pt in points:
        l1, l2, l3 = pt.lambdas
        rows.append((pt.k, l1.real, l1.imag, l2.real, l2.imag, l3.real, l3.imag,
                     pt.pattern.value))
    return rows
