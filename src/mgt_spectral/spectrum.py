"""Eigenvalues of the per-frequency mode matrix and their classification.

At frequency magnitude k the first-order system for (u, u_t, u_tt) in
frequency space has the 3x3 matrix

    Phi(k) = [[0, 1, 0], [0, 0, 1], [-k^2/tau, -beta k^2/tau, -1/tau]]

whose characteristic polynomial is the cubic

    p(lam) = tau*lam^3 + lam^2 + beta*k^2*lam + k^2.

Roots are computed by the closed-form trigonometric/Cardano solution of the
depressed cubic followed by Newton polishing on the original polynomial; a
conjugate pair is then read off the quadratic factor left by the polished
real root (Vieta), so it stays accurate relative to its own parts at any k.
Exactly at the threshold frequencies k^2 = m1, m2 (and at the critical-ratio
triple root) the closed form is ill-conditioned, so those points are routed
to the analytic double/triple-root formulas instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from . import params as params_mod
from .errors import GridError, InvalidFrequency
from .params import ModelParams, Regime

#: Relative residual budget for returned roots: |p(lam)| <= TOL_RESIDUAL * scale.
TOL_RESIDUAL = 1e-9

#: Two roots closer than TOL_CONFLUENT * max(1, |lam|) are treated as a double root.
TOL_CONFLUENT = 1e-7

#: k^2 closer to m1/m2 than this (relative) is routed to the confluent formulas.
TOL_BOUNDARY = 1e-11

#: Largest beta*k^2/tau the closed-form roots take: beyond it the cube of the
#: depressed-cubic coefficient overflows.
MAX_STIFFNESS = 1e102


class RootPattern(Enum):
    REAL_PLUS_PAIR = "RealPlusPair"
    THREE_DISTINCT_REAL = "ThreeDistinctReal"
    REAL_WITH_DOUBLE = "RealWithDouble"
    TRIPLE_REAL = "TripleReal"


class Labeling(Enum):
    CANONICAL = "Canonical"
    BRANCH_CONTINUOUS = "BranchContinuous"


@dataclass(frozen=True)
class SpectrumPoint:
    """The three eigenvalues at one frequency magnitude.

    Canonical labeling puts the real root first when a conjugate pair exists
    (the pair member with Im >= 0 second) and sorts all-real triples in
    ascending order.  Branch-continuous labeling is produced by atlas().
    """

    k: float
    lambdas: tuple[complex, complex, complex]
    pattern: RootPattern
    labeling: Labeling = Labeling.CANONICAL


@dataclass(frozen=True)
class AsymptoticTriple:
    """Truncated eigenvalue expansion at small or large frequency."""

    k: float
    lambdas_approx: tuple[complex, complex, complex]
    order: int


def characteristic_residual(p: ModelParams, lam: complex, k: float) -> tuple[float, float]:
    """Return (|p(lam)|, scale) with scale the sum of term magnitudes."""
    k2 = k * k
    val = p.tau * lam**3 + lam**2 + p.beta * k2 * lam + k2
    scale = p.tau * abs(lam) ** 3 + abs(lam) ** 2 + p.beta * k2 * abs(lam) + k2
    return abs(val), max(scale, 1e-300)


# ---------------------------------------------------------------------------
# closed-form root computation
# ---------------------------------------------------------------------------

def _cubic_roots_batch(tau: float, beta: float, k2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Roots of tau*lam^3 + lam^2 + beta*k2*lam + k2 for an array of k2 >= 0.

    Returns (roots, is_pair): roots has shape (n, 3), complex.  Where is_pair
    is True the layout is (real root, a+ib with b > 0, a-ib); otherwise three
    real roots in ascending order.  Real roots are Newton-polished and the
    pair is deflated from the real root; exact pattern bookkeeping
    (double/triple detection) is left to the callers.  Raises
    InvalidFrequency where beta*k2/tau exceeds MAX_STIFFNESS.
    """
    k2 = np.atleast_1d(np.asarray(k2, dtype=float))
    n = k2.shape[0]
    # normalized monic coefficients: lam^3 + A lam^2 + B lam + C
    A = np.full(n, 1.0 / tau)
    B = beta * k2 / tau
    if not (B <= MAX_STIFFNESS).all():
        raise InvalidFrequency(
            f"beta*k^2/tau must not exceed {MAX_STIFFNESS:.0e} (k <= "
            f"{math.sqrt(MAX_STIFFNESS * tau / beta):.3e} here); got {np.max(B):.3e}")
    C = k2 / tau

    Q = (A * A - 3.0 * B) / 9.0
    R = (2.0 * A**3 - 9.0 * A * B + 27.0 * C) / 54.0
    R2 = R * R
    Q3 = Q**3

    roots = np.empty((n, 3), dtype=complex)
    # boundary R2 == Q3 lands on the Cardano branch; polished below.  At small k,
    # R2 and Q3 agree to rounding and may call a pair three real roots, one of
    # them positive, so a row is also a pair where the discriminant over k2,
    # -4 + (18 tau beta + beta^2 - 27 tau^2) k2 - 4 tau beta^3 k2^2, is well
    # below zero (-4 at k = 0; near 0 only close to the thresholds m1, m2)
    disc = (-4.0 + (18.0 * tau * beta + beta * beta - 27.0 * tau * tau) * k2
            - 4.0 * tau * beta**3 * k2 * k2)
    is_pair = (R2 >= Q3) | (disc < -1.0)

    # three-real branch (trigonometric form)
    m3 = ~is_pair
    if np.any(m3):
        Qm, Rm, Am = Q[m3], R[m3], A[m3]
        theta = np.arccos(np.clip(Rm / np.sqrt(Qm**3), -1.0, 1.0))
        sq = -2.0 * np.sqrt(Qm)
        r1 = sq * np.cos(theta / 3.0) - Am / 3.0
        r2 = sq * np.cos((theta + 2.0 * np.pi) / 3.0) - Am / 3.0
        r3 = sq * np.cos((theta - 2.0 * np.pi) / 3.0) - Am / 3.0
        trip = np.sort(np.stack([r1, r2, r3], axis=1), axis=1)
        roots[m3] = trip.astype(complex)

    # one real + conjugate pair branch (Cardano)
    if np.any(is_pair):
        Qm, Rm, Am = Q[is_pair], R[is_pair], A[is_pair]
        Sm = -np.sign(Rm) * np.cbrt(np.abs(Rm) + np.sqrt(np.maximum(R2[is_pair] - Q3[is_pair], 0.0)))
        Tm = np.where(Sm != 0.0, Qm / np.where(Sm != 0.0, Sm, 1.0), 0.0)
        real = (Sm + Tm) - Am / 3.0
        re_pair = -(Sm + Tm) / 2.0 - Am / 3.0
        im_pair = (np.sqrt(3.0) / 2.0) * np.abs(Sm - Tm)
        blk = np.empty((real.shape[0], 3), dtype=complex)
        blk[:, 0] = real
        blk[:, 1] = re_pair + 1j * im_pair
        blk[:, 2] = re_pair - 1j * im_pair
        roots[is_pair] = blk

    _polish_batch(tau, beta, k2, roots, is_pair)
    return roots, is_pair


def _polish_batch(tau: float, beta: float, k2: np.ndarray, roots: np.ndarray,
                  is_pair: np.ndarray, steps: int = 2) -> None:
    """In-place Newton polish, keeping real roots real and pairs conjugate.

    A pair is replaced by the roots of the quadratic factor left by its
    row's polished real root."""

    def poly(lam):
        return tau * lam**3 + lam**2 + beta * k2[:, None] * lam + k2[:, None]

    def dpoly(lam):
        return 3.0 * tau * lam**2 + 2.0 * lam + beta * k2[:, None]

    for _ in range(steps):
        f = poly(roots)
        df = dpoly(roots)
        ok = np.abs(df) > 1e-300
        step = np.where(ok, f / np.where(ok, df, 1.0), 0.0)
        cand = roots - step
        # accept only steps that reduce the residual
        better = np.abs(poly(cand)) <= np.abs(f)
        roots[:] = np.where(better, cand, roots)

    # restore exact structure: real roots real, and the pair exactly conjugate,
    # taken from the quadratic factor left by the polished real root (Vieta).
    # Polished alone, the pair carries an absolute error of about eps*|lam2|:
    # at large k that swamps its O(1) real part, at small k its O(k) imaginary part
    pair_rows = np.where(is_pair)[0]
    if pair_rows.size:
        lam = roots[pair_rows, 0].real
        kp = k2[pair_rows]
        alpha, q = _deflate(1.0 / tau, beta * kp / tau, kp / tau, lam)
        lam2 = alpha + 1j * np.sqrt(np.maximum(-q, 0.0))
        roots[pair_rows, 0] = lam
        roots[pair_rows, 1] = lam2
        roots[pair_rows, 2] = np.conj(lam2)
    real_rows = np.where(~is_pair)[0]
    if real_rows.size:
        roots[real_rows] = np.sort(roots[real_rows].real, axis=1).astype(complex)


def _deflate(a, b, c, lam) -> tuple:
    """(alpha, q) with (z - alpha)^2 - q the quadratic factor left after dividing
    z^3 + a z^2 + b z + c by z - lam, for a real root lam (Vieta)."""
    # a + lam cancels at small k, (s - b)/lam where s is close to b
    s = -c / lam
    use_sum = (a + np.abs(lam)) * np.abs(lam) <= np.abs(s) + b
    alpha = -0.5 * np.where(use_sum, a + lam, (s - b) / lam)
    return alpha, alpha * alpha - s


def _route_confluent(p: ModelParams, k2: np.ndarray, roots: np.ndarray,
                     is_pair: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Overwrite, in place, the _cubic_roots_batch rows at threshold frequencies
    with the analytic confluent roots, where the closed form returns noisy
    near-equal roots; returns (roots, is_pair)."""
    zero = k2 == 0.0
    if np.any(zero):
        roots[zero, 0] = -1.0 / p.tau
        roots[zero, 1] = 0.0
        roots[zero, 2] = 0.0
        is_pair[zero] = False

    thr = params_mod.cardano_thresholds(p)
    if thr.m1 is not None:
        if params_mod.regime(p) is Regime.CRITICAL:
            m = 0.5 * (thr.m1 + thr.m2)
            hit = np.abs(k2 - m) <= TOL_BOUNDARY * max(1.0, m)
            if np.any(hit):
                roots[hit] = -1.0 / (3.0 * p.tau)
                is_pair[hit] = False
        else:
            for m in (thr.m1, thr.m2):
                hit = np.abs(k2 - m) <= TOL_BOUNDARY * max(1.0, m)
                if np.any(hit):
                    lam_s, lam_d = _double_root_values(p.tau, p.beta, m)
                    trio = np.sort([lam_s, lam_d, lam_d])
                    roots[hit] = trio.astype(complex)
                    is_pair[hit] = False
    return roots, is_pair


def _double_root_values(tau: float, beta: float, k2: float) -> tuple[float, float]:
    """(simple, double) roots of the cubic when its discriminant vanishes."""
    a, b, c, d = tau, 1.0, beta * k2, k2
    disc0 = b * b - 3.0 * a * c
    lam_double = (9.0 * a * d - b * c) / (2.0 * disc0)
    lam_simple = (4.0 * a * b * c - 9.0 * a * a * d - b**3) / (a * disc0)
    return lam_simple, lam_double


def _boundary_kind(p: ModelParams, k2: float) -> str | None:
    """Detect whether k2 sits on a threshold: 'm1', 'm2', 'triple', or None."""
    thr = params_mod.cardano_thresholds(p)
    if thr.m1 is None:
        return None
    reg = params_mod.regime(p)
    if reg is Regime.CRITICAL:
        m = 0.5 * (thr.m1 + thr.m2)
        if abs(k2 - m) <= TOL_BOUNDARY * max(1.0, m):
            return "triple"
        return None
    if abs(k2 - thr.m1) <= TOL_BOUNDARY * max(1.0, thr.m1):
        return "m1"
    if abs(k2 - thr.m2) <= TOL_BOUNDARY * max(1.0, thr.m2):
        return "m2"
    return None


def classify(p: ModelParams, k: float) -> RootPattern:
    """Root pattern at frequency k, decided from k^2 against the thresholds."""
    if not (math.isfinite(k) and k >= 0.0):
        raise InvalidFrequency(f"frequency magnitude must be finite and >= 0, got {k}")
    if k == 0.0:
        return RootPattern.REAL_WITH_DOUBLE
    k2 = k * k
    reg = params_mod.regime(p)
    if reg is Regime.SUPER_CRITICAL:
        return RootPattern.REAL_PLUS_PAIR
    kind = _boundary_kind(p, k2)
    if reg is Regime.CRITICAL:
        return RootPattern.TRIPLE_REAL if kind == "triple" else RootPattern.REAL_PLUS_PAIR
    if kind in ("m1", "m2"):
        return RootPattern.REAL_WITH_DOUBLE
    thr = params_mod.cardano_thresholds(p)
    if thr.m1 < k2 < thr.m2:
        return RootPattern.THREE_DISTINCT_REAL
    return RootPattern.REAL_PLUS_PAIR


def eigenvalues(p: ModelParams, k: float) -> SpectrumPoint:
    """All three eigenvalues of Phi(k) with canonical labeling.

    Raises InvalidFrequency on negative or non-finite k, and where
    beta*k^2/tau exceeds MAX_STIFFNESS.
    """
    try:
        k = float(k)
    except (TypeError, ValueError) as exc:
        raise InvalidFrequency(f"frequency magnitude must be a number, got {k!r}") from exc
    if not (math.isfinite(k) and k >= 0.0):
        raise InvalidFrequency(f"frequency magnitude must be finite and >= 0, got {k!r}")
    if k == 0.0:
        return SpectrumPoint(k=0.0, lambdas=(-1.0 / p.tau, 0.0 + 0.0j, 0.0 + 0.0j),
                             pattern=RootPattern.REAL_WITH_DOUBLE)
    k2 = k * k
    kind = _boundary_kind(p, k2)
    if kind == "triple":
        lam = -1.0 / (3.0 * p.tau)
        return SpectrumPoint(k=k, lambdas=(lam, lam, lam), pattern=RootPattern.TRIPLE_REAL)
    if kind in ("m1", "m2"):
        lam_s, lam_d = _double_root_values(p.tau, p.beta, k2)
        lams = tuple(sorted((lam_s, lam_d, lam_d)))
        return SpectrumPoint(k=k, lambdas=tuple(complex(x) for x in lams),
                             pattern=RootPattern.REAL_WITH_DOUBLE)

    roots, is_pair = _cubic_roots_batch(p.tau, p.beta, np.array([k2]))
    row = roots[0]
    if is_pair[0]:
        lams = (complex(row[0].real), complex(row[1]), complex(row[2]))
        pattern = RootPattern.REAL_PLUS_PAIR
    else:
        lams = tuple(complex(x.real) for x in row)  # already ascending
        pattern = RootPattern.THREE_DISTINCT_REAL
    return SpectrumPoint(k=k, lambdas=lams, pattern=pattern)


def asymptotic_small_k(p: ModelParams, k: float) -> AsymptoticTriple:
    """Small-frequency expansion: lam1 ~ -1/tau, pair ~ +-ik - (beta-tau)k^2/2."""
    if not (math.isfinite(k) and k >= 0.0):
        raise InvalidFrequency(f"frequency magnitude must be finite and >= 0, got {k}")
    damp = 0.5 * (p.beta - p.tau) * k * k
    lam2 = complex(-damp, k)
    return AsymptoticTriple(k=k, lambdas_approx=(-1.0 / p.tau, lam2, lam2.conjugate()), order=2)


def asymptotic_large_k(p: ModelParams, k: float) -> AsymptoticTriple:
    """Large-frequency expansion: lam1 ~ -1/beta, pair ~ -(beta-tau)/(2 beta tau) +- ik sqrt(beta/tau)."""
    if not (math.isfinite(k) and k > 0.0):
        raise InvalidFrequency(f"large-frequency expansion needs k > 0, got {k}")
    re = -(p.beta - p.tau) / (2.0 * p.beta * p.tau)
    im = k * math.sqrt(p.beta / p.tau)
    lam2 = complex(re, im)
    return AsymptoticTriple(k=k, lambdas_approx=(-1.0 / p.beta, lam2, lam2.conjugate()), order=2)


def atlas(p: ModelParams, k_grid: Sequence[float]) -> list[SpectrumPoint]:
    """Eigenvalues along an ascending grid, relabeled for branch continuity.

    Each node's triple is matched to the previous node's by the permutation
    minimizing the total displacement, so every labeled sequence is a
    continuous function of k.  Values agree with eigenvalues() up to
    permutation.
    """
    ks = np.asarray(list(k_grid), dtype=float)
    if ks.size == 0:
        raise GridError("empty frequency grid")
    if np.any(~np.isfinite(ks)) or np.any(ks < 0.0):
        raise GridError("frequency grid must be finite and nonnegative")
    if np.any(np.diff(ks) < 0.0):
        raise GridError("frequency grid must be ascending")

    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    out: list[SpectrumPoint] = []
    prev: np.ndarray | None = None
    for k in ks:
        pt = eigenvalues(p, float(k))
        lams = np.array(pt.lambdas, dtype=complex)
        if prev is not None:
            costs = [np.abs(lams[list(perm)] - prev).sum() for perm in perms]
            lams = lams[list(perms[int(np.argmin(costs))])]
        out.append(SpectrumPoint(k=float(k), lambdas=tuple(lams), pattern=pt.pattern,
                                 labeling=Labeling.BRANCH_CONTINUOUS))
        prev = lams
    return out


def atlas_rows(points: Sequence[SpectrumPoint]) -> list[tuple]:
    """Rows (k, re/im of each branch, pattern name) for serialization."""
    rows = []
    for pt in points:
        l1, l2, l3 = pt.lambdas
        rows.append((pt.k, l1.real, l1.imag, l2.real, l2.imag, l3.real, l3.imag,
                     pt.pattern.value))
    return rows
