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
the propagated state, never finite differences.  _evolve runs it on a
(frequency x state x time) block after one root solve: solve_mode is its
batch of one, the Gronwall sweeps whole blocks.  The same form on the roots
alpha +- sqrt(q) of the factor is the mode's one expansion (_expansion):
e^{lam t}(y0 - P) + e^{alpha t}(P cos rt + S sin rt), cosh and sinh for
real roots.  solve_modes_on_grid returns it on the pair rows as the states'
split, whose oscillation the quadratures integrate separately, and
mode_coefficients reads the per-pattern coefficients off its first
components: a description of the mode that no evaluation uses.  There is
one pattern decision and no way to override it: the description takes its
pattern and roots from spectrum's routed spectrum (_route_confluent, the
path behind eigenvalues and atlas), so it never disagrees with them.

propagate_numeric() is the cross-check oracle for the closed form: the
matrix exponential of Phi t by balanced Pade scaling and squaring (_expm3),
in numpy alone, which forms no eigenvalue and never calls the spectrum
kernel.

FrequencyProfile is the radial initial data of each mode component: decay
integrates the modes it starts over all k, `mgt mode` samples it at one k.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .params import ModelParams
from .spectrum import (RootPattern, _cubic_roots_batch, _frequencies, _frequency, _grid,
                       _nonnegative, _route_confluent, _upper_root)


@dataclass(frozen=True)
class ModeState:
    """Value of one mode and its first two time derivatives.

    Along a trajectory (solve_mode at an array of times) the three values
    are arrays of the times' shape; as_array and norm take a single state.
    """

    u_hat: complex
    v_hat: complex
    w_hat: complex
    k: float

    def as_array(self) -> np.ndarray:
        return np.array([self.u_hat, self.v_hat, self.w_hat], dtype=complex)

    def norm(self) -> float:
        return math.hypot(abs(self.u_hat), abs(self.v_hat), abs(self.w_hat))


@dataclass(frozen=True)
class ModeCoefficients:
    """Expansion coefficients of one mode: a description, evaluated by solve_mode.

    `pattern` is eigenvalues(p, k).pattern, read from the same routed
    spectrum row as `structure`, which holds the roots in the layout of that
    pattern, and `coeffs` weigh its basis:
    REAL_PLUS_PAIR -> (lam_real, alpha, omega): e^{lam_real t}, e^{alpha t} cos, sin(omega t),
    THREE_DISTINCT_REAL -> (lam1, lam2, lam3): e^{lam_i t},
    REAL_WITH_DOUBLE -> (lam_simple, lam_double): e^{lam_simple t}, (1, t) e^{lam_double t},
    TRIPLE_REAL -> (lam,): (1, t, t^2) e^{lam t}.
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


@dataclass(frozen=True)
class FrequencyProfile:
    """Radial frequency-space profile for one component of the initial data,
    amplitude * (scale*k)^order * exp(-(scale*k)^2 / 2), order (an integer, not a bool)
    the order of its zero at k = 0: 0 for L1 data (gaussian), 1 for zero-mean data with
    a finite first moment (moment_free).  decay's tail certification bounds it by the
    same monomial times exp(-(s*k)^2 / 2) for any s <= scale.
    """

    order: int
    scale: float = 1.0
    amplitude: float = 1.0

    def __post_init__(self):
        integer = hasattr(self.order, "__index__") and not isinstance(self.order, bool)
        if not (integer and operator.index(self.order) in (0, 1)):
            raise InvalidInput(f"profile order must be 0 or 1, got {self.order!r}")
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise InvalidInput(f"profile scale must be finite and > 0, got {self.scale}")
        if not math.isfinite(self.amplitude):
            raise InvalidInput(f"profile amplitude must be finite, got {self.amplitude}")

    def __call__(self, k: np.ndarray) -> np.ndarray:
        s = self.scale * np.asarray(k, dtype=float)
        with np.errstate(over="ignore"):  # s*s = inf gives e^-inf = 0, the exact limit
            return self.amplitude * s**self.order * np.exp(-0.5 * s * s)

    @property
    def vanishes_at_zero(self) -> bool:
        return self.amplitude == 0.0 or self.order > 0

    @staticmethod
    def gaussian(scale: float = 1.0, amplitude: float = 1.0) -> "FrequencyProfile":
        return FrequencyProfile(0, scale, amplitude)

    @staticmethod
    def moment_free(scale: float = 1.0, amplitude: float = 1.0) -> "FrequencyProfile":
        return FrequencyProfile(1, scale, amplitude)

    @staticmethod
    def zero() -> "FrequencyProfile":
        return FrequencyProfile(0, 1.0, 0.0)


DataTriple = tuple[FrequencyProfile, FrequencyProfile, FrequencyProfile]


def _parse_data(spec: str) -> DataTriple:
    """Parse a `--data` value 'u0:TYPE[:SCALE[:AMP]],u1:...,u2:...' into three profiles.

    `zero` takes no SCALE or AMP; an extra field or a repeated component is an error.
    """
    kinds = {"gaussian": 0, "mfgaussian": 1, "zero": None}
    names, profiles = ("u0", "u1", "u2"), {}
    for chunk in spec.split(","):
        parts = chunk.strip().split(":")
        if len(parts) < 2:
            raise ValueError(f"--data: bad component {chunk!r}; expected name:type[:scale[:amp]]")
        name, kind_s = parts[0].strip().lower(), parts[1].strip().lower()
        if name not in names:
            raise ValueError(f"--data: unknown component {name!r}")
        if name in profiles:
            raise ValueError(f"--data: component {name!r} given twice")
        if kind_s not in kinds:
            raise ValueError(f"--data: unknown profile type {kind_s!r} "
                             f"(choose from {sorted(kinds)})")
        if len(parts) > (2 if kinds[kind_s] is None else 4):
            raise ValueError(f"--data: too many fields in {chunk!r}; expected "
                             + ("name:zero" if kinds[kind_s] is None
                                else "name:type[:scale[:amp]]"))
        try:
            numbers = [float(x) for x in parts[2:]]
        except ValueError:
            raise ValueError(f"--data: scale and amp must be numbers in {chunk!r}") from None
        profiles[name] = (FrequencyProfile.zero() if kinds[kind_s] is None
                          else FrequencyProfile(kinds[kind_s], *numbers))
    return tuple(profiles.get(name, FrequencyProfile.zero()) for name in names)


def mode_matrix(p: ModelParams, k: float | np.ndarray) -> np.ndarray:
    """The 3x3 system matrix at frequency magnitude k; a stack for an array k."""
    k2 = np.square(_frequencies(k))
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
_SERIES_WEIGHTS = tuple(1.0 / math.factorial(j + 2) for j in range(20))


def _apply_phi(a: float, b: np.ndarray, c: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Phi y for Phi with last row (-c, -b, -a), applied without forming Phi."""
    return np.stack([y[1], y[2], -(c * y[0] + b * y[1] + a * y[2])])


def _propagate(nodes: tuple, y0: np.ndarray, t, w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """exp(Phi t) y0 for states y0 of shape (3, ...), Phi given by the factor
    nodes = (a, b, c, lam, alpha, q) of spectrum._cubic_roots_batch and
    w1, w2 the Newton directions of y0 (_directions).

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
    relative accuracy however fast it decays.  Off the series rows g0 is taken
    as ((lam - alpha)(e^{lam t} - d0) - q d1) / den, den = (lam - alpha)^2 - q,
    which does not cancel when lam (about -1/tau) lies far from the pair.
    """
    a, b, c, lam, alpha, q = nodes
    t = np.asarray(t, dtype=float)
    osc = q < 0.0
    r = np.sqrt(np.abs(q))
    rt = r * t
    # e^{x1 t} with x1 the larger real node (_upper_root), or e^{alpha t} for a complex
    # pair; e^{alpha t} cosh would overflow at large t where e^{x1 t} cannot
    e_hi = np.exp(_upper_root(c, lam, alpha, q) * t)
    decay = -np.expm1(-2.0 * rt)
    d0 = e_hi * np.where(osc, np.cos(rt), 1.0 - 0.5 * decay)
    d1 = e_hi * np.where(r > 0.0, np.where(osc, np.sin(rt), 0.5 * decay)
                         / np.where(r > 0.0, r, 1.0), t)

    dl = lam - alpha
    den = dl * dl - q  # (lam - x1)(lam - x2)
    with np.errstate(over="ignore"):  # den t^2 = inf past t ~ 1e154: not a series row
        series = np.abs(den) * t * t < 1.0
    e_lam = np.exp(lam * t)
    d2 = (e_lam - dl * d1 - d0) / np.where(series, 1.0, den)
    if series.any():
        # close nodes: centred Taylor series e^{-at/3} t^2 sum_j h_j / (j+2)!, with
        # h_j the complete symmetric polynomials of the scaled depressed-cubic roots
        ts, bs, cs = (np.broadcast_to(x, series.shape)[series] for x in (t, b, c))
        a2 = -(bs - a * a / 3.0) * ts * ts
        a3 = -(2.0 * a**3 / 27.0 - a * bs / 3.0 + cs) * ts**3
        # h holds (h_{j-3}, h_{j-2}, h_{j-1}); the sum runs elementwise in order of j, no BLAS
        h = (np.ones_like(ts), np.zeros_like(ts), a2)
        acc = _SERIES_WEIGHTS[0] * h[0] + _SERIES_WEIGHTS[2] * a2
        for weight in _SERIES_WEIGHTS[3:]:
            h = (h[1], h[2], a2 * h[1] + a3 * h[0])
            acc = acc + weight * h[2]
        d2[series] = np.exp(-a * ts / 3.0) * ts * ts * acc

    g0 = np.where(series, d1 + dl * d2, (dl * (e_lam - d0) - q * d1) / np.where(series, 1.0, den))
    return e_lam * y0 + g0 * w1 + d2 * w2


def _directions(nodes: tuple, y0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Newton directions w1 = (Phi - lam) y0 and w2 = (Phi - alpha) w1."""
    a, b, c, lam, alpha, _ = nodes
    w1 = _apply_phi(a, b, c, y0) - lam * y0
    return w1, _apply_phi(a, b, c, w1) - alpha * w1


def _expansion(nodes: tuple, w1: np.ndarray, w2: np.ndarray, q) -> tuple[np.ndarray, np.ndarray]:
    """(P, S) of exp(Phi t) y0 = e^{lam t}(y0 - P) + e^{alpha t}(P C(rt) + S Sn(rt)),
    _propagate's form on the roots alpha +- r of (z - alpha)^2 - q, r = sqrt|q|, from
    y0's Newton directions: (C, Sn) = (cos, sin) for q < 0, (cosh, sinh) for q > 0, and
    at q = 0 (a double root alpha) S weighs t e^{alpha t}.  With dl = lam - alpha and
    den = dl^2 - q, which must not vanish (no triple root),
    P = -(dl w1 + w2) / den and S = -(q w1 + dl w2) / (r den); q may be a routed one."""
    dl = nodes[3] - nodes[4]
    den = dl * dl - q
    r = np.sqrt(np.abs(q))
    return -(dl * w1 + w2) / den, -(q * w1 + dl * w2) / (den * np.where(r > 0.0, r, 1.0))


def _times(t) -> np.ndarray:
    """The time rule: t as a float array, InvalidInput unless finite and >= 0."""
    return _nonnegative(t, "time", InvalidInput)


def _time(t) -> float:
    """One time as a float, by the rule of _times."""
    if (ts := _times(t)).ndim:
        raise InvalidInput(f"time must be a number, got {t!r}")
    return float(ts)


def _time_grid(time_grid) -> np.ndarray:
    """The time-grid rule: each entry by _times, the grid by spectrum._grid, strictly ascending."""
    return _grid(_times(time_grid), "time", "strictly ascending")


def mode_coefficients(p: ModelParams, init: ModeState) -> ModeCoefficients:
    """Expansion coefficients of the mode init starts, in the basis of its root pattern.

    The pattern and the roots are those of eigenvalues(p, k) at k = init.k:
    the one routed decision of spectrum._route_confluent, made
    on the factor that solve_mode propagates with.  The coefficients are
    the u components of _expansion's y0 - P, P, S on the routed factor (q := 0
    at a double root), a triple root's its Taylor coefficients.  It raises only
    on a k that eigenvalues rejects; close to a confluence the coefficients are
    as ill-conditioned as the basis itself (they grow like the inverse root
    spacing), which does not affect solve_mode.
    """
    k2 = np.square([_frequency(init.k)])
    nodes = _cubic_roots_batch(p.tau, p.beta, k2)
    roots, patterns = _route_confluent(p, k2, nodes)
    routed, y0 = patterns[0], init.as_array()
    if routed is RootPattern.TRIPLE_REAL:
        lam = roots[0, 0].real
        c2 = y0[1] - lam * y0[0]
        coeffs = (y0[0], c2, (y0[2] - lam * lam * y0[0] - 2.0 * lam * c2) / 2.0)
        return ModeCoefficients(routed, coeffs, (lam,))

    q = 0.0 if routed is RootPattern.REAL_WITH_DOUBLE else nodes[5][0]  # the routed factor
    P, S = (x[0, 0] for x in _expansion(nodes, *_directions(nodes, y0[:, None]), q))
    lam, alpha, r = nodes[3][0], nodes[4][0], math.sqrt(abs(q))
    if routed is RootPattern.THREE_DISTINCT_REAL:
        # P cosh rt + S sinh rt on e^{(alpha -+ r) t}; each root keeps its coefficient, ascending
        structure, coeffs = zip(*sorted(zip((lam, alpha - r, _upper_root(*nodes[2:5], q)[0]),
                                            (y0[0] - P, (P - S) / 2.0, (P + S) / 2.0)),
                                        key=lambda pair: pair[0]))
    else:
        structure = (lam, alpha, r) if routed is RootPattern.REAL_PLUS_PAIR else (lam, alpha)
        coeffs = (y0[0] - P, P, S)
    return ModeCoefficients(routed, tuple(coeffs), tuple(structure))


# ---------------------------------------------------------------------------
# evaluation: the kernel on a batch of one mode
# ---------------------------------------------------------------------------

def _evolve(p: ModelParams, ks: np.ndarray, y0: np.ndarray, t: np.ndarray) -> np.ndarray:
    """exp(Phi(k) t) y0, (3, n, s) + t.shape, for checked frequencies ks (n,), states y0
    (3, n, s) or (3, 1, s) (the same at every k) and times t: one root solve, one kernel call."""
    tail = (...,) + (None,) * t.ndim
    nodes = tuple(x[:, None][tail] if np.ndim(x) else x
                  for x in _cubic_roots_batch(p.tau, p.beta, ks * ks))
    y0 = np.broadcast_to(y0, (3, ks.size, y0.shape[2]))[tail]
    return _propagate(nodes, y0, t, *_directions(nodes, y0))


def solve_mode(p: ModelParams, init: ModeState, t) -> ModeState:
    """Closed-form state at a time t >= 0, or an array of times, of the mode init starts.

    _evolve's batch of one: for an array t the state holds arrays of t's shape.
    t follows the time rule, and a k that eigenvalues rejects raises.
    """
    t = _times(t)
    k = _frequency(init.k)
    y = _evolve(p, np.array([k]), init.as_array().reshape(3, 1, 1), t)[:, 0, 0]
    return ModeState(*(complex(x) if t.ndim == 0 else x for x in y), k=k)


def propagate_numeric(p: ModelParams, init: ModeState, t) -> ModeState:
    """Independent oracle: exp(Phi t) y0 by a balanced scaling-and-squaring Pade
    exponential (_expm3).

    It forms no eigenvalue, never calls the spectrum kernel and builds Phi
    with mode_matrix, which the closed form never calls.  Phi is balanced as
    D^-1 Phi D with D = diag(1, s, s^2) and s a power of two near
    sqrt(beta k^2 / tau), the modulus of the stiff pair: the scaling then
    follows the spectral radius, not the entry beta k^2 / tau, and the
    balancing rounds nothing.  t is a time or an array of times, each giving
    the bits of its own scalar call; it takes the inputs of solve_mode and
    raises as it does, and InvalidInput beyond its domain
    k t sqrt(beta/tau) <= ORACLE_MAX_PHASE: the error relative to 1 + |y|
    grows like the rounding of that many radians (6e-12 at 3e4, 3e-10 at
    3e6, 1.5e-8 at 3e8).
    """
    ts = _times(t)
    k = _frequency(init.k)
    phase = k * float(np.max(ts, initial=0.0)) * math.sqrt(p.beta / p.tau)
    if phase > ORACLE_MAX_PHASE:
        raise InvalidInput(f"the oracle needs k t sqrt(beta/tau) <= {ORACLE_MAX_PHASE:.0e}, "
                           f"got {phase:.3e}")
    e = math.frexp(p.beta * k * k / p.tau)[1] // 2  # 2^e within a factor 2 of the modulus
    d = np.ldexp(1.0, e * np.arange(3))
    balanced = mode_matrix(p, k) * d / d[:, None]
    y = d * np.einsum("nij,j->ni", _expm3(ts.reshape(-1, 1, 1) * balanced), init.as_array() / d)
    u, v, w = (complex(x[0]) if ts.ndim == 0 else x.reshape(ts.shape) for x in y.T)
    return ModeState(u_hat=u, v_hat=v, w_hat=w, k=k)


#: Largest phase k t sqrt(beta/tau) propagate_numeric takes (error about 3e-10 there).
ORACLE_MAX_PHASE = 1e6

#: Pade [13/13] numerator coefficients of exp, b_0 ... b_13, and theta_13, the
#: largest 1-norm at which that approximant's backward error is at most the
#: double-precision unit roundoff (N. J. Higham, SIAM J. Matrix Anal. Appl. 26
#: (2005) 1179-1193)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
           33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The products of two stacks of 3x3 matrices by einsum: elementwise loops that
    map no BLAS, each product the same bits in any stack."""
    return np.einsum("nij,njk->nik", a, b)


def _expm3(a: np.ndarray) -> np.ndarray:
    """exp of each matrix in a stack a of shape (n, 3, 3), with no BLAS or LAPACK.

    Scaling and squaring on the Pade [13/13] approximant: each matrix is
    divided by the least power of two 2^m that brings its 1-norm to at most
    theta_13, and its approximant squared m times, each matrix its own m, so
    a matrix gives the same bits alone or in any stack.  The Pade denominator
    q is solved in closed form, q^-1 = adj(q) / det(q) by cofactors, with
    no pivoting: in that norm range q is well conditioned (Higham, ibid.).
    """
    m = np.maximum(np.frexp(np.abs(a).sum(axis=1).max(axis=1) / _THETA13)[1], 0)
    a = np.ldexp(a, -m[:, None, None])
    b, eye = _PADE13, np.eye(3)
    a2 = _mul(a, a)
    a4 = _mul(a2, a2)
    a6 = _mul(a4, a2)
    u = _mul(a, _mul(a6, b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (_mul(a6, b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    q = v - u
    # adj(q)[i, j] = q[j+1, i+1] q[j+2, i+2] - q[j+1, i+2] q[j+2, i+1], indices mod 3
    qt = np.swapaxes(q, 1, 2)
    up, down = [1, 2, 0], [2, 0, 1]
    adj = (qt[:, up][:, :, up] * qt[:, down][:, :, down]
           - qt[:, down][:, :, up] * qt[:, up][:, :, down])
    det = q[:, 0, 0] * adj[:, 0, 0] + q[:, 0, 1] * adj[:, 1, 0] + q[:, 0, 2] * adj[:, 2, 0]
    r = _mul(adj, v + u) / det[:, None, None]
    for i in range(int(m.max(initial=0))):
        more = m > i
        r[more] = _mul(r[more], r[more])
    return r


def _v_forms(tau: float) -> tuple:
    """V's linear forms A = v + tau w, B = u + tau v and v of y = (u, v, w), as (power of k,
    form) pairs, |V|^2 = sum k^power |form(y)|^2; on y' = (v, w, w_t) they give A_t, B_t, w."""
    return ((0, lambda y: y[1] + tau * y[2]), (2, lambda y: y[0] + tau * y[1]),
            (2, lambda y: y[1]))


def v_vector(p: ModelParams, state: ModeState) -> VVector:
    """Energy-variable vector (v + tau*w, k*|u + tau*v|, k*|v|) of a state."""
    (_, a), (_, b), (_, c) = _v_forms(p.tau)
    y = (state.u_hat, state.v_hat, state.w_hat)
    return VVector(a=a(y), b_mag=state.k * abs(b(y)), c_mag=state.k * abs(c(y)))


class GridModes(tuple):
    """(u, u_t, u_tt) on an array of frequency magnitudes, as solve_modes_on_grid
    returns it, with `split` = (lam, alpha, r, L, P, S): each state is
    e^{lam t} L + e^{alpha t}(P cos rt + S sin rt) where the cubic has a complex
    pair alpha +- i r, and L, P, S do not depend on t.  Every amplitude carries
    a factor 1/r or 1/((lam - alpha)^2 + r^2), so the split is accurate only
    where r t is not small; rows without a pair get r = 0, P = S = 0, L = y0."""

    def __new__(cls, y, split: tuple):
        self = super().__new__(cls, y)
        self.split = split
        return self


def solve_modes_on_grid(p: ModelParams, ks: np.ndarray, u0: np.ndarray, u1: np.ndarray,
                        u2: np.ndarray, t: float) -> GridModes:
    """Closed-form (u, u_t, u_tt) at time t for an array of frequency magnitudes.

    One call of the mode kernel and one root solve; the hot path of the norm
    quadratures.  The data broadcast against ks.  The three arrays unpack as a
    tuple, whose `split` writes them out on the complex pair of the cubic,
    from the same Newton directions.  The results are real for real data and
    complex for complex data.  Raises by the time rule (t is one time) and
    the frequency rule, and InvalidFrequency where beta*k^2/tau exceeds
    spectrum.MAX_STIFFNESS.
    """
    t = _time(t)
    ks = _frequencies(ks)
    y0 = np.stack(np.broadcast_arrays(u0, u1, u2, ks)[:3])
    nodes = _cubic_roots_batch(p.tau, p.beta, ks * ks)
    lam, alpha, q = nodes[3:]
    w1, w2 = _directions(nodes, y0)
    # the expansion on pair rows; the rest take q = -1, which keeps den and r from
    # vanishing, and then P = S = 0, L = y0
    pair = q < 0.0
    P, S = (np.where(pair, x, 0.0) for x in _expansion(nodes, w1, w2, np.where(pair, q, -1.0)))
    r = np.sqrt(np.where(pair, -q, 0.0))
    return GridModes(_propagate(nodes, y0, t, w1, w2), (lam, alpha, r, y0 - P, P, S))
