"""Exact solution of one frequency mode and an independent numerical oracle.

Each frequency magnitude k evolves under the third-order ODE

    tau * u''' + u'' + k^2 * u + beta * k^2 * u' = 0,

whose state y = (u, u', u'') obeys y' = Phi(k) y.  Every mode value comes
from one batched kernel, _propagate, which evaluates exp(Phi t) y0 in Newton
(Putzer) form over divided differences of exp(lam t) at the three
eigenvalues.  The divided differences are computed in real arithmetic from
one real root and the quadratic factor of the cubic, so the form is
continuous through every confluence (double roots at m1, m2 and k = 0, the
triple root at the critical ratio) and needs no pattern switch, no
Vandermonde solve and no conditioning gate.  Derivatives are components of
the propagated state, never finite differences.

The per-pattern expansion coefficients of mode_coefficients (real root plus
conjugate pair, three distinct reals, real double root, real triple root)
are kept as a description of the mode; evaluation does not use them.

propagate_numeric() integrates the equivalent first-order system with an
adaptive high-order Runge-Kutta scheme and serves as the cross-check oracle
for the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import IllConditioned, StepFailure
from .params import ModelParams
from .spectrum import RootPattern, TOL_CONFLUENT, _cubic_roots_batch, _route_confluent


@dataclass(frozen=True)
class ModeState:
    """Value of one mode and its first two time derivatives."""

    u_hat: complex
    v_hat: complex
    w_hat: complex
    k: float

    def as_array(self) -> np.ndarray:
        return np.array([self.u_hat, self.v_hat, self.w_hat], dtype=complex)

    def norm(self) -> float:
        return float(np.linalg.norm(self.as_array()))


@dataclass(frozen=True)
class ModeCoefficients:
    """Expansion coefficients of one mode, with the data that evaluates it.

    `structure` holds the roots in the layout of the selected pattern:
    REAL_PLUS_PAIR -> (lam_real, alpha, omega) for the pair alpha +- i*omega,
    THREE_DISTINCT_REAL -> (lam1, lam2, lam3),
    REAL_WITH_DOUBLE -> (lam_simple, lam_double),
    TRIPLE_REAL -> (lam,).
    `nodes` is the factor (a, b, c, lam, alpha, q) of the characteristic
    cubic from spectrum._cubic_roots_batch; evaluate_mode propagates `init`
    with it, not with the coefficients.
    """

    pattern: RootPattern
    coeffs: tuple[complex, complex, complex]
    structure: tuple[float, ...]
    init: ModeState
    nodes: tuple = field(compare=False, repr=False)


@dataclass(frozen=True)
class VVector:
    """Energy-variable vector of one mode: (v + tau*w, k*(u + tau*v), k*v)."""

    a: complex
    b_mag: float
    c_mag: float

    @property
    def norm_sq(self) -> float:
        return abs(self.a) ** 2 + self.b_mag**2 + self.c_mag**2


def mode_matrix(p: ModelParams, k: float | np.ndarray) -> np.ndarray:
    """The 3x3 system matrix at frequency magnitude k; a stack for an array k."""
    k2 = np.square(np.asarray(k, dtype=float))
    phi = np.zeros(k2.shape + (3, 3))
    phi[..., 0, 1] = phi[..., 1, 2] = 1.0
    phi[..., 2, 0] = -k2 / p.tau
    phi[..., 2, 1] = -p.beta * k2 / p.tau
    phi[..., 2, 2] = -1.0 / p.tau
    return phi


# ---------------------------------------------------------------------------
# the mode kernel: exp(Phi t) y0 in Newton form
# ---------------------------------------------------------------------------

#: 1/(j+2)! for the terms of the centred series of the third divided difference;
#: the series runs only where every scaled node is at most ~1 in modulus, so
#: twenty terms reach rounding level.
_SERIES_WEIGHTS = np.array([1.0 / math.factorial(j + 2) for j in range(20)])


def _apply_phi(a: float, b: np.ndarray, c: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Phi y for Phi with last row (-c, -b, -a), applied without forming Phi."""
    return np.stack([y[1], y[2], -(c * y[0] + b * y[1] + a * y[2])])


def _propagate(nodes: tuple, y0: np.ndarray, t) -> np.ndarray:
    """exp(Phi t) y0 for states y0 of shape (3, ...), Phi given by the factor
    nodes = (a, b, c, lam, alpha, q) of spectrum._cubic_roots_batch.

    Phi's characteristic cubic is z^3 + a z^2 + b z + c, lam a real root and
    (z - alpha)^2 - q the quadratic factor it leaves.  The node arrays and t
    broadcast together and against y0's trailing axes.  With x1, x2 the roots
    of the quadratic factor, the Newton interpolant of f(z) = e^{zt} gives

        exp(Phi t) = d0 + d1 (Phi - alpha) + d2 ((Phi - alpha)^2 - q)
                   = e^{lam t} + g0 (Phi - lam) + d2 (Phi - alpha)(Phi - lam),

    where d0 = (e^{x1 t} + e^{x2 t})/2, d1 = f[x1, x2], d2 = f[x1, x2, lam]
    and g0 = d1 + (lam - alpha) d2.  Each is a smooth function of the
    cubic's coefficients, so roots that carry the unavoidable error near a
    double or triple root do not spoil the result.  The second form is the
    one applied: at k = 0 the u'' row decouples, (Phi - lam) y0 has an exact
    zero there (lam = -1/tau), and u'' = e^{-t/tau} u''(0) keeps its
    relative accuracy however fast it decays.
    """
    a, b, c, lam, alpha, q = nodes
    t = np.asarray(t, dtype=float)
    osc = q < 0.0
    r = np.sqrt(np.abs(q))
    rt = r * t
    # e^{x1 t} with x1 = alpha + r the larger real node, or e^{alpha t} for a complex
    # pair; e^{alpha t} cosh would overflow at large t where e^{x1 t} cannot
    e_hi = np.exp((alpha + np.where(osc, 0.0, r)) * t)
    decay = -np.expm1(-2.0 * rt)
    d0 = e_hi * np.where(osc, np.cos(rt), 1.0 - 0.5 * decay)
    d1 = e_hi * np.where(r > 0.0, np.where(osc, np.sin(rt), 0.5 * decay)
                         / np.where(r > 0.0, r, 1.0), t)

    dl = lam - alpha
    den = dl * dl - q  # (lam - x1)(lam - x2)
    series = np.abs(den) * t * t < 1.0
    e_lam = np.exp(lam * t)
    d2 = (e_lam - dl * d1 - d0) / np.where(series, 1.0, den)
    if series.any():
        # close nodes: centred Taylor series e^{-at/3} t^2 sum_j h_j / (j+2)!, with
        # h_j the complete symmetric polynomials of the scaled depressed-cubic roots
        ts, bs, cs = (np.broadcast_to(x, series.shape)[series] for x in (t, b, c))
        a2 = -(bs - a * a / 3.0) * ts * ts
        a3 = -(2.0 * a**3 / 27.0 - a * bs / 3.0 + cs) * ts**3
        h = [np.ones_like(ts), np.zeros_like(ts), a2]
        for _ in range(3, _SERIES_WEIGHTS.size):
            h.append(a2 * h[-2] + a3 * h[-3])
        d2[series] = np.exp(-a * ts / 3.0) * ts * ts * (_SERIES_WEIGHTS @ np.stack(h))

    w1 = _apply_phi(a, b, c, y0) - lam * y0
    w2 = _apply_phi(a, b, c, w1) - alpha * w1
    return e_lam * y0 + (d1 + dl * d2) * w1 + d2 * w2


# ---------------------------------------------------------------------------
# pattern coefficients (a description of the mode, not used to evaluate it)
# ---------------------------------------------------------------------------

def _select_structure(roots: np.ndarray, is_pair: bool) -> tuple[RootPattern, tuple[float, ...]]:
    scale = max(1.0, float(np.max(np.abs(roots))))
    tol = TOL_CONFLUENT * scale
    if is_pair:
        lam_r = roots[0].real
        alpha, omega = roots[1].real, abs(roots[1].imag)
        if 2.0 * omega >= tol:
            return RootPattern.REAL_PLUS_PAIR, (lam_r, alpha, omega)
        # collapsed pair: double real root at alpha
        if abs(lam_r - alpha) < tol:
            return RootPattern.TRIPLE_REAL, ((lam_r + 2.0 * alpha) / 3.0,)
        return RootPattern.REAL_WITH_DOUBLE, (lam_r, alpha)
    a, b, c = np.sort(roots.real)
    d1, d2 = b - a, c - b
    if d1 < tol and d2 < tol:
        return RootPattern.TRIPLE_REAL, ((a + b + c) / 3.0,)
    if d1 < tol:
        return RootPattern.REAL_WITH_DOUBLE, (c, (a + b) / 2.0)
    if d2 < tol:
        return RootPattern.REAL_WITH_DOUBLE, (a, (b + c) / 2.0)
    return RootPattern.THREE_DISTINCT_REAL, (a, b, c)


def _coefficient_matrix(pattern: RootPattern, structure: tuple[float, ...]) -> np.ndarray:
    if pattern is RootPattern.REAL_PLUS_PAIR:
        lam_r, al, om = structure
        return np.array([
            [1.0, 1.0, 0.0],
            [lam_r, al, om],
            [lam_r * lam_r, al * al - om * om, 2.0 * al * om],
        ])
    if pattern is RootPattern.THREE_DISTINCT_REAL:
        l1, l2, l3 = structure
        return np.array([[1.0, 1.0, 1.0], [l1, l2, l3], [l1 * l1, l2 * l2, l3 * l3]])
    if pattern is RootPattern.REAL_WITH_DOUBLE:
        ls, ld = structure
        return np.array([[1.0, 1.0, 0.0], [ls, ld, 1.0], [ls * ls, ld * ld, 2.0 * ld]])
    raise ValueError(f"no linear system for pattern {pattern}")


def mode_coefficients(p: ModelParams, k: float, init: ModeState,
                      pattern: RootPattern | None = None) -> ModeCoefficients:
    """Expansion coefficients of the mode in the basis of its root pattern.

    With pattern=None the pattern is selected from the eigenvalue spacing
    and the call never raises for a valid mode; close to a confluence the
    coefficients are as ill-conditioned as the basis itself (they grow like
    the inverse root spacing), which does not affect evaluate_mode.  Forcing
    a distinct-roots pattern raises IllConditioned when its coefficient
    system's condition number exceeds 1/TOL_CONFLUENT, signalling that the
    caller must reclassify the mode as confluent.
    """
    if abs(init.k - k) > 1e-12 * max(1.0, abs(k)):
        raise ValueError(f"initial state is tagged k={init.k}, solve requested k={k}")
    k2 = np.array([k * k])
    nodes = _cubic_roots_batch(p.tau, p.beta, k2)
    roots, patterns = _route_confluent(p, k2, nodes)
    pair = patterns[0] is RootPattern.REAL_PLUS_PAIR
    auto_pattern, auto_structure = _select_structure(roots[0], pair)

    forced = pattern is not None
    if pattern is None or pattern is auto_pattern:
        pattern, structure = auto_pattern, auto_structure
    else:
        # honor the caller's pattern using the raw roots
        if pattern is RootPattern.REAL_PLUS_PAIR and pair:
            structure = (roots[0, 0].real, roots[0, 1].real, abs(roots[0, 1].imag))
        elif pattern is RootPattern.THREE_DISTINCT_REAL and not pair:
            structure = tuple(np.sort(roots[0].real))
        elif pattern is RootPattern.TRIPLE_REAL:
            structure = (float(np.mean(roots[0].real)),)
        elif pattern is RootPattern.REAL_WITH_DOUBLE:
            _, structure = _select_structure(roots[0], pair)
            if len(structure) != 2:
                raise IllConditioned(f"mode k={k} is not a double-root configuration")
        else:
            raise IllConditioned(f"pattern {pattern} inconsistent with roots at k={k}")

    rhs = init.as_array()
    if pattern is RootPattern.TRIPLE_REAL:
        lam = structure[0]
        c1 = rhs[0]
        c2 = rhs[1] - lam * c1
        c3 = (rhs[2] - lam * lam * c1 - 2.0 * lam * c2) / 2.0
        return ModeCoefficients(pattern, (c1, c2, c3), structure, init, nodes)

    mat = _coefficient_matrix(pattern, structure)
    if forced and pattern in (RootPattern.REAL_PLUS_PAIR, RootPattern.THREE_DISTINCT_REAL):
        cond = np.linalg.cond(mat)
        if cond > 1.0 / TOL_CONFLUENT:
            raise IllConditioned(
                f"coefficient system at k={k} has condition number {cond:.3e}; "
                "reclassify as confluent")
    sol = np.linalg.solve(mat, rhs)
    return ModeCoefficients(pattern, tuple(sol), structure, init, nodes)


# ---------------------------------------------------------------------------
# evaluation: the kernel on a batch of one mode
# ---------------------------------------------------------------------------

def evaluate_mode(coeffs: ModeCoefficients, k: float, t,
                  n_derivatives: int = 2) -> tuple:
    """The mode and its first n_derivatives time derivatives at t.

    t is a time or an array of times; each returned value has t's shape
    (a complex number for a scalar t).  The mode is the one `coeffs` was
    built for; k is accepted for symmetry with the other calls.  Derivative
    j <= 2 is a component of exp(Phi t) y0; higher ones propagate
    Phi^(j-2) y0, so they check that the kernel commutes with Phi.
    """
    vecs = [coeffs.init.as_array()[:, None]]
    for _ in range(n_derivatives - 2):
        vecs.append(_apply_phi(*coeffs.nodes[:3], vecs[-1]))
    t = np.asarray(t, dtype=float)
    y0 = np.concatenate(vecs, axis=1).reshape((3,) + (1,) * t.ndim + (len(vecs),))
    y = _propagate(coeffs.nodes, y0, t[..., None])
    out = [y[j, ..., 0] for j in range(min(n_derivatives, 2) + 1)]
    out += [y[2, ..., j] for j in range(1, len(vecs))]
    return tuple(complex(x) if t.ndim == 0 else x for x in out)


def solve_mode(p: ModelParams, k: float, init: ModeState, t: float,
               pattern: RootPattern | None = None) -> ModeState:
    """Closed-form state of the mode at time t >= 0."""
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"solve_mode requires t >= 0, got {t}")
    coeffs = mode_coefficients(p, k, init, pattern=pattern)
    u, v, w = evaluate_mode(coeffs, k, t, n_derivatives=2)
    return ModeState(u_hat=u, v_hat=v, w_hat=w, k=k)


def ode_residual(p: ModelParams, k: float, init: ModeState, t: float) -> tuple[float, float]:
    """|tau*u''' + u'' + k^2 u + beta k^2 u'| at time t, with its magnitude scale.

    The third derivative is the kernel applied to Phi y0, independently of
    the propagated state.
    """
    coeffs = mode_coefficients(p, k, init)
    u, v, w, w_t = evaluate_mode(coeffs, k, t, n_derivatives=3)
    k2 = k * k
    res = abs(p.tau * w_t + w + k2 * u + p.beta * k2 * v)
    scale = p.tau * abs(w_t) + abs(w) + k2 * abs(u) + p.beta * k2 * abs(v)
    return res, max(scale, 1e-300)


def propagate_numeric(p: ModelParams, k: float, init: ModeState, t: float,
                      tol: float = 1e-10) -> ModeState:
    """Independent oracle: adaptive high-order integration of the 3x3 system."""
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"propagate_numeric requires t >= 0, got {t}")
    if not (tol > 0.0):
        raise ValueError(f"tolerance must be positive, got {tol}")
    if t == 0.0:
        return init
    # imported here: scipy.integrate costs a quarter second and only the oracle uses it
    from scipy.integrate import solve_ivp

    phi = mode_matrix(p, k)
    y0 = init.as_array()
    scale = max(1.0, float(np.max(np.abs(y0))))
    sol = solve_ivp(lambda _, y: phi @ y, (0.0, t), y0, method="DOP853",
                    rtol=tol, atol=tol * scale * 1e-3, dense_output=False)
    if not sol.success:
        raise StepFailure(f"integrator failed at k={k}, t={t}: {sol.message}")
    u, v, w = sol.y[:, -1]
    return ModeState(u_hat=complex(u), v_hat=complex(v), w_hat=complex(w), k=k)


def v_vector(p: ModelParams, state: ModeState) -> VVector:
    """Energy-variable vector (v + tau*w, k*|u + tau*v|, k*|v|) of a state."""
    a = state.v_hat + p.tau * state.w_hat
    b_mag = state.k * abs(state.u_hat + p.tau * state.v_hat)
    c_mag = state.k * abs(state.v_hat)
    return VVector(a=a, b_mag=b_mag, c_mag=c_mag)


def solve_modes_on_grid(p: ModelParams, ks: np.ndarray, u0: np.ndarray, u1: np.ndarray,
                        u2: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form (u, u_t, u_tt) at time t for an array of frequency magnitudes.

    One call of the mode kernel; the hot path of the norm quadratures.  The
    results are real for real data and complex for complex data.  Raises
    InvalidFrequency where beta*k^2/tau exceeds spectrum.MAX_STIFFNESS.
    """
    ks = np.asarray(ks, dtype=float)
    y0 = np.stack(np.broadcast_arrays(u0, u1, u2))
    u, v, w = _propagate(_cubic_roots_batch(p.tau, p.beta, ks * ks), y0, t)
    return u, v, w
