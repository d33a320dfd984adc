"""Exact solution of one frequency mode and an independent numerical oracle.

Each frequency magnitude k evolves under the third-order ODE

    tau * u''' + u'' + k^2 * u + beta * k^2 * u' = 0,

solved in closed form from the eigenvalues of the mode matrix.  Four formula
variants cover the root patterns (real root plus conjugate pair, three
distinct reals, real double root, real triple root); the variant is selected
from the computed eigenvalue spacing, not from exact parameter identities,
so near-confluent modes never touch an ill-conditioned Vandermonde system.
Derivatives come from differentiating the closed form, never from finite
differences.

propagate_numeric() integrates the equivalent first-order system with an
adaptive high-order Runge-Kutta scheme and serves as the cross-check oracle
for the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IllConditioned, StepFailure
from .params import ModelParams
from .spectrum import RootPattern, TOL_CONFLUENT, _roots_batch_checked


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
    """Expansion coefficients plus the root data needed to evaluate them.

    `structure` holds the roots in the layout of the selected pattern:
    REAL_PLUS_PAIR -> (lam_real, alpha, omega) for the pair alpha +- i*omega,
    THREE_DISTINCT_REAL -> (lam1, lam2, lam3),
    REAL_WITH_DOUBLE -> (lam_simple, lam_double),
    TRIPLE_REAL -> (lam,).
    """

    pattern: RootPattern
    coeffs: tuple[complex, complex, complex]
    structure: tuple[float, ...]


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
# pattern selection by eigenvalue spacing
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
    """Solve the 3x3 initial-condition system for the expansion coefficients.

    With pattern=None the formula variant is selected automatically from the
    eigenvalue spacing and the solve is always well conditioned.  Forcing a
    distinct-roots pattern raises IllConditioned when the system's condition
    number exceeds 1/TOL_CONFLUENT, signalling that the caller must
    reclassify the mode as confluent.
    """
    if abs(init.k - k) > 1e-12 * max(1.0, abs(k)):
        raise ValueError(f"initial state is tagged k={init.k}, solve requested k={k}")
    roots, is_pair = _roots_batch_checked(p, np.array([k * k]))
    auto_pattern, auto_structure = _select_structure(roots[0], bool(is_pair[0]))

    if pattern is None or pattern is auto_pattern:
        pattern, structure = auto_pattern, auto_structure
    else:
        # honor the caller's pattern using the raw roots
        if pattern is RootPattern.REAL_PLUS_PAIR and is_pair[0]:
            structure = (roots[0, 0].real, roots[0, 1].real, abs(roots[0, 1].imag))
        elif pattern is RootPattern.THREE_DISTINCT_REAL and not is_pair[0]:
            structure = tuple(np.sort(roots[0].real))
        elif pattern is RootPattern.TRIPLE_REAL:
            structure = (float(np.mean(roots[0].real)),)
        elif pattern is RootPattern.REAL_WITH_DOUBLE:
            _, structure = _select_structure(roots[0], bool(is_pair[0]))
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
        return ModeCoefficients(pattern, (c1, c2, c3), structure)

    mat = _coefficient_matrix(pattern, structure)
    if pattern in (RootPattern.REAL_PLUS_PAIR, RootPattern.THREE_DISTINCT_REAL):
        cond = np.linalg.cond(mat)
        if cond > 1.0 / TOL_CONFLUENT:
            raise IllConditioned(
                f"coefficient system at k={k} has condition number {cond:.3e}; "
                "reclassify as confluent")
    sol = np.linalg.solve(mat, rhs)
    return ModeCoefficients(pattern, tuple(sol), structure)


# ---------------------------------------------------------------------------
# closed-form evaluation with analytic derivatives
# ---------------------------------------------------------------------------

def _derivative_coeffs(pattern: RootPattern, structure: tuple[float, ...],
                       coeffs: np.ndarray) -> np.ndarray:
    """Coefficients of d/dt applied to the expansion, same representation."""
    c1, c2, c3 = coeffs
    if pattern is RootPattern.REAL_PLUS_PAIR:
        lam_r, al, om = structure
        return np.array([lam_r * c1, al * c2 + om * c3, al * c3 - om * c2])
    if pattern is RootPattern.THREE_DISTINCT_REAL:
        l1, l2, l3 = structure
        return np.array([l1 * c1, l2 * c2, l3 * c3])
    if pattern is RootPattern.REAL_WITH_DOUBLE:
        ls, ld = structure
        return np.array([ls * c1, ld * c2 + c3, ld * c3])
    lam = structure[0]
    return np.array([lam * c1 + c2, lam * c2 + 2.0 * c3, lam * c3])


def _evaluate_expansion(pattern: RootPattern, structure: tuple[float, ...],
                        coeffs: np.ndarray, t: float) -> complex:
    c1, c2, c3 = coeffs
    if pattern is RootPattern.REAL_PLUS_PAIR:
        lam_r, al, om = structure
        return c1 * math.exp(lam_r * t) + math.exp(al * t) * (
            c2 * math.cos(om * t) + c3 * math.sin(om * t))
    if pattern is RootPattern.THREE_DISTINCT_REAL:
        l1, l2, l3 = structure
        return c1 * math.exp(l1 * t) + c2 * math.exp(l2 * t) + c3 * math.exp(l3 * t)
    if pattern is RootPattern.REAL_WITH_DOUBLE:
        ls, ld = structure
        return c1 * math.exp(ls * t) + (c2 + c3 * t) * math.exp(ld * t)
    lam = structure[0]
    return (c1 + c2 * t + c3 * t * t) * math.exp(lam * t)


def evaluate_mode(coeffs: ModeCoefficients, k: float, t: float,
                  n_derivatives: int = 2) -> tuple[complex, ...]:
    """Evaluate the mode and its first n_derivatives time derivatives at t."""
    cs = np.array(coeffs.coeffs, dtype=complex)
    out = [_evaluate_expansion(coeffs.pattern, coeffs.structure, cs, t)]
    for _ in range(n_derivatives):
        cs = _derivative_coeffs(coeffs.pattern, coeffs.structure, cs)
        out.append(_evaluate_expansion(coeffs.pattern, coeffs.structure, cs, t))
    return tuple(out)


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

    The third derivative is reconstructed analytically from the expansion.
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


# ---------------------------------------------------------------------------
# vectorized evaluation over a frequency grid (quadrature back end)
# ---------------------------------------------------------------------------

def solve_modes_on_grid(p: ModelParams, ks: np.ndarray, u0: np.ndarray, u1: np.ndarray,
                        u2: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form (u, u_t, u_tt) at time t for an array of frequency magnitudes.

    Pattern selection and coefficient solves are batched by root structure;
    this is the hot path of the norm quadratures.
    """
    ks = np.asarray(ks, dtype=float)
    n = ks.shape[0]
    u = np.empty(n, dtype=complex)
    v = np.empty(n, dtype=complex)
    w = np.empty(n, dtype=complex)
    if n == 0:
        return u, v, w

    roots, is_pair = _roots_batch_checked(p, ks * ks)
    scale = np.maximum(1.0, np.max(np.abs(roots), axis=1))
    tol = TOL_CONFLUENT * scale

    re = roots.real
    pair_split = is_pair & (2.0 * np.abs(roots[:, 1].imag) >= tol)
    pair_merged = is_pair & ~pair_split
    real3 = ~is_pair
    d1 = np.where(real3, re[:, 1] - re[:, 0], 0.0)
    d2 = np.where(real3, re[:, 2] - re[:, 1], 0.0)
    triple_m = (real3 & (d1 < tol) & (d2 < tol)) | (pair_merged & (np.abs(re[:, 0] - re[:, 1]) < tol))
    double_m = ((real3 & ((d1 < tol) ^ (d2 < tol))) | pair_merged) & ~triple_m
    distinct_m = real3 & ~triple_m & ~double_m
    pair_m = pair_split

    rhs = np.stack([np.asarray(u0, dtype=complex), np.asarray(u1, dtype=complex),
                    np.asarray(u2, dtype=complex)], axis=1)

    def _eval_lin(mat, b, f):
        # mat: (m,3,3) real, b: (m,3) complex, f evaluates from coefficients
        cs = np.linalg.solve(mat.astype(complex), b[..., None])[..., 0]
        return f(cs)

    if np.any(pair_m):
        idx = np.where(pair_m)[0]
        lam_r = re[idx, 0]
        al = roots[idx, 1].real
        om = np.abs(roots[idx, 1].imag)
        m = np.zeros((idx.size, 3, 3))
        m[:, 0, 0] = 1.0
        m[:, 0, 1] = 1.0
        m[:, 1, 0] = lam_r
        m[:, 1, 1] = al
        m[:, 1, 2] = om
        m[:, 2, 0] = lam_r * lam_r
        m[:, 2, 1] = al * al - om * om
        m[:, 2, 2] = 2.0 * al * om

        def feval(cs):
            e_r = np.exp(lam_r * t)
            e_p = np.exp(al * t)
            cosw, sinw = np.cos(om * t), np.sin(om * t)
            outs = []
            c1, c2, c3 = cs[:, 0], cs[:, 1], cs[:, 2]
            for _ in range(3):
                outs.append(c1 * e_r + e_p * (c2 * cosw + c3 * sinw))
                c1, c2, c3 = lam_r * c1, al * c2 + om * c3, al * c3 - om * c2
            return outs

        u[idx], v[idx], w[idx] = _eval_lin(m, rhs[idx], feval)

    if np.any(distinct_m):
        idx = np.where(distinct_m)[0]
        lams = re[idx]
        m = np.ones((idx.size, 3, 3))
        m[:, 1, :] = lams
        m[:, 2, :] = lams * lams

        def feval(cs):
            e = np.exp(lams * t)
            outs = []
            c = cs
            for _ in range(3):
                outs.append((c * e).sum(axis=1))
                c = c * lams
            return outs

        u[idx], v[idx], w[idx] = _eval_lin(m, rhs[idx], feval)

    if np.any(double_m):
        idx = np.where(double_m)[0]
        ls = np.empty(idx.size)
        ld = np.empty(idx.size)
        merged = pair_merged[idx]
        ls[merged] = re[idx[merged], 0]
        ld[merged] = re[idx[merged], 1]
        r3 = ~merged
        low = d1[idx] < tol[idx]
        ls[r3 & low] = re[idx[r3 & low], 2]
        ld[r3 & low] = 0.5 * (re[idx[r3 & low], 0] + re[idx[r3 & low], 1])
        ls[r3 & ~low] = re[idx[r3 & ~low], 0]
        ld[r3 & ~low] = 0.5 * (re[idx[r3 & ~low], 1] + re[idx[r3 & ~low], 2])
        m = np.zeros((idx.size, 3, 3))
        m[:, 0, 0] = 1.0
        m[:, 0, 1] = 1.0
        m[:, 1, 0] = ls
        m[:, 1, 1] = ld
        m[:, 1, 2] = 1.0
        m[:, 2, 0] = ls * ls
        m[:, 2, 1] = ld * ld
        m[:, 2, 2] = 2.0 * ld

        def feval(cs):
            e_s, e_d = np.exp(ls * t), np.exp(ld * t)
            outs = []
            c1, c2, c3 = cs[:, 0], cs[:, 1], cs[:, 2]
            for _ in range(3):
                outs.append(c1 * e_s + (c2 + c3 * t) * e_d)
                c1, c2, c3 = ls * c1, ld * c2 + c3, ld * c3
            return outs

        u[idx], v[idx], w[idx] = _eval_lin(m, rhs[idx], feval)

    if np.any(triple_m):
        idx = np.where(triple_m)[0]
        lam = re[idx].mean(axis=1)
        c1 = rhs[idx, 0]
        c2 = rhs[idx, 1] - lam * c1
        c3 = 0.5 * (rhs[idx, 2] - lam * lam * c1 - 2.0 * lam * c2)
        e = np.exp(lam * t)
        outs = []
        for _ in range(3):
            outs.append((c1 + c2 * t + c3 * t * t) * e)
            c1, c2, c3 = lam * c1 + c2, lam * c2 + 2.0 * c3, lam * c3
        u[idx], v[idx], w[idx] = outs

    return u, v, w
