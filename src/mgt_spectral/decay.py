"""Sobolev-norm decay measurement by quadrature over the frequency magnitude.

For radially symmetric frequency-space data the squared Sobolev norm of
order j in dimension N is proportional to

    J_j(t) = int_0^inf k^(2j + N - 1) |u(k, t)|^2 dk,

with the dimensional sphere-area constant deliberately dropped: every decay
statement under test concerns rates and relative constants, which are
invariant under a fixed multiplicative factor.

Truncation of the infinite range is certified: the mode energy is
nonincreasing and bounded by the initial energy's monomial-Gaussian envelope,
and beyond the truncation point the measured Lyapunov decay factor
exp(-gamma5 rho(K) t) shrinks the admissible tail further, which is what
makes the large-time sweeps cheap.

The integrand oscillates with the phase 2 r(k) t, where alpha +- i r is the
complex pair of the mode.  Each mode is written
e^{lam t} L + e^{alpha t}(P cos rt + S sin rt) with P, S and L smooth in k,
and its square splits into a smooth envelope, e^{2 alpha t}(P^2 + S^2)/2
plus e^{2 lam t} L^2, and harmonics of the phase: terms in cos 2rt and
sin 2rt, and the e^{(lam + alpha) t} cross terms in cos rt and sin rt.  One
adaptive_quadrature pass over [0, k_max] integrates the envelope by
Clenshaw-Curtis panels and the harmonics by Levin collocation on the same
panels, so the node count follows the smooth amplitudes, not t times the
cut.  Panels that touch a confluence (k near 0, sqrt(m1), sqrt(m2) or the
triple root, where r t < pi and the split is ill-conditioned) and the
three-real window take the whole integrand, bisected while its phase turns
by more than pi.  Each integrand call solves the modes once
(solve_modes_on_grid), which returns their split with them.  The
oscillating integral-lemma kernels go through the same quadrature
(integral_lemma_check).
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import lyapunov
from .errors import DegenerateFit, InvalidInput, QuadratureFailure
from .mode_solver import DataTriple, FrequencyProfile, _time_grid, _times, solve_modes_on_grid
from .params import (DataClass, ModelParams, _check_orders, cardano_thresholds,
                     high_frequency_rate, theorem_rates)
from .quadrature import QuadResult, Split, _tolerance, adaptive_quadrature
from .spectrum import eigenvalues


@dataclass(frozen=True)
class RegionSplit:
    """Low/middle/high frequency boundaries: low below nu1, high above nu2."""

    nu1: float
    nu2: float


@dataclass(frozen=True)
class RegionContributions:
    low: float
    mid: float
    high: float


@dataclass
class DecayCurve:
    """A sampled Sobolev-norm time series with its fitted slope and bound."""

    times: np.ndarray
    values: np.ndarray
    dim: int
    j: int
    fitted_slope: float | None
    bound_exponent: float
    bound_constant_measured: float
    tau: float
    beta: float
    quad_tol: float
    #: per time: integrand evaluations, quadrature error estimate, certified cut
    #: and the tail bound beyond it (error estimate + tail bound <= quad_tol)
    quad_nodes: np.ndarray | None = None
    quad_error: np.ndarray | None = None
    k_max: np.ndarray | None = None
    tail_bound: np.ndarray | None = None


def region_split(p: ModelParams) -> RegionSplit:
    """Frequency regions: nu1 <= 0.5/beta below sqrt(m1), nu2 >= 2/beta above sqrt(m2)."""
    thr, nu1, nu2 = cardano_thresholds(p), 0.5 / p.beta, 2.0 / p.beta
    if thr.m1 is not None:
        nu1, nu2 = min(nu1, 0.9 * math.sqrt(thr.m1)), max(nu2, 1.1 * math.sqrt(thr.m2))
    return RegionSplit(nu1=nu1, nu2=nu2)


def region_rates(p: ModelParams) -> tuple[float, float]:
    """Exponential rates (c3, c4) of the high and middle frequency regions of region_split(p)."""
    c3 = high_frequency_rate(p)
    lam2 = eigenvalues(p, region_split(p).nu1).lambdas[1]
    c4 = min(1.0 / p.beta, abs(lam2.real))
    return c3, c4


# ---------------------------------------------------------------------------
# certified truncation of the frequency integrals
# ---------------------------------------------------------------------------

def _upper_gamma(two_a: int, z: float) -> float:
    """Upper incomplete gamma Gamma(a, z) at a half-integer or integer a = two_a / 2.

    Starts from Gamma(1/2, z) = sqrt(pi) erfc(sqrt(z)) or Gamma(1, z) = e^-z
    and recurses upward with Gamma(a + 1, z) = a Gamma(a, z) + z^a e^-z.  Every
    term is positive, so nothing cancels.
    """
    if two_a % 2:
        a, g = 0.5, math.sqrt(math.pi) * math.erfc(math.sqrt(z))
    else:
        a, g = 1.0, math.exp(-z)
    log_z = math.log(z) if z > 0.0 else -math.inf
    while 2.0 * a < two_a:
        g = a * g + math.exp(a * log_z - z)
        a += 1.0
    return g


def _exp1(z: float) -> float:
    """E1(z) = int_z^inf e^-x / x dx at z > 0: the series -gamma - ln z -
    sum_n (-z)^n / (n n!) up to z = 1, beyond it the continued fraction of
    Numerical Recipes' `expint` (n = 1) by the modified Lentz method."""
    if z <= 1.0:
        total, term, n = -0.5772156649015329 - math.log(z), 1.0, 0
        while abs(term) > 1e-17 * abs(total):
            n += 1
            term *= -z / n
            total -= term / n
        return total
    b, c = z + 1.0, 1e300
    h = d = 1.0 / b
    for i in range(1, 1000):
        b += 2.0
        d, c = 1.0 / (b - i * i * d), b - i * i / c
        h *= c * d
        if abs(c * d - 1.0) <= 1e-15:
            break
    return h * math.exp(-z)


def _gauss_tail(m: int, s: float, K: float) -> float:
    """Upper bound on int_K^inf k^m exp(-(s k)^2) dk for an integer power m: a
    closed form over math.exp and math.erfc, and at m = -1, the one order
    without an elementary closed form (N + 2j <= 2 only), E1((s K)^2) / 2."""
    if K <= 0.0:
        K = 1e-12
    if s * K > 1e154:  # e^-z is 0.0 long before z = (s K)^2 leaves the float range
        return 0.0
    z = (s * K) ** 2
    if m <= -2:
        return math.exp(-z) * K ** (m + 1) / (-m - 1.0)
    if m == -1:  # E1(0) = inf, where (s K)^2 underflows
        return 0.5 * _exp1(z) if z > 0.0 else math.inf
    try:
        return 0.5 * s ** (-(m + 1.0)) * _upper_gamma(m + 1, z)
    except OverflowError:  # s^-(m+1) past the float range: no finite bound
        return math.inf


def _envelope_monomials(p: ModelParams,
                        data: DataTriple) -> tuple[list[tuple[float, int]], float, float]:
    """Monomials (coef, power), s_min and a unit with
    E(k, 0) <= unit^2 sum coef k^power exp(-(s_min k)^2): each profile as
    |amplitude| (scale k)^order, the three squares of E(k, 0) expanded term by
    term; exact for data of one scale and one sign.  The unit is the largest
    |amplitude| scale^order, so the coefficients stay in the float range where
    the squares of the profiles' would not."""
    sizes = [abs(prof.amplitude) * prof.scale ** prof.kind.order for prof in data]
    unit = max(sizes)
    if unit == 0.0:
        return [], 1.0, 1.0
    s_min = min(prof.scale for prof in data if prof.amplitude != 0.0)
    (c0, o0), (c1, o1), (c2, o2) = ((size / unit, prof.kind.order)
                                    for size, prof in zip(sizes, data))
    tau, beta = p.tau, p.beta

    def sq(terms: list[tuple[float, int]], weight: float, shift: int) -> list[tuple[float, int]]:
        # weight k^shift (sum c k^power)^2, term by term
        return [(weight * c * d, shift + m + n) for c, m in terms for d, n in terms]

    mono = (sq([(c1, o1), (tau * c2, o2)], 1.0, 0)           # |u1 + tau u2|^2
            + sq([(c1, o1)], tau * (beta - tau), 2)          # tau(beta-tau) k^2 |u1|^2
            + sq([(c0, o0), (tau * c1, o1)], 1.0, 2))        # k^2 |u0 + tau u1|^2
    return [(0.5 * c, pw) for c, pw in mono if c != 0.0], s_min, unit


@functools.lru_cache
def _cached_weights(p: ModelParams) -> lyapunov.LyapunovWeights:
    return lyapunov.default_weights(p)


def _norm_tail(p: ModelParams, data: DataTriple, dim: int, j: int, t: float,
               v_norm: bool) -> Callable[[float], float]:
    """Certified bound on the norm integral over [K, inf), as a function of K."""
    mono, s_min, unit = _envelope_monomials(p, data)
    w = _cached_weights(p)
    shift = 2 * j + dim - (1 if v_norm else 3)
    mono = [(c, pw + shift) for c, pw in mono]
    ratio = w.equiv_hi / w.equiv_lo
    amp = 1.0 if v_norm else (1.0 + p.tau) ** 2

    def tail(K: float) -> float:
        rho_k = K * K / (1.0 + K * K)
        decay_factor = min(1.0, ratio * math.exp(-w.gamma5 * rho_k * t))
        # unit^2 may leave the float range where the tail does not
        return unit * (unit * w.v_hi * decay_factor * amp
                       * sum(c * _gauss_tail(m, s_min, K) for c, m in mono))

    return tail


def _kmax_certified(tail: Callable[[float], float], tol: float) -> float:
    """A truncation point K whose certified tail(K) is at most tol, within 5% above
    the smallest such K: bisection in log K stops once the bracket is that narrow."""
    hi = 1.0
    for _ in range(400):
        if tail(hi) <= tol:
            break
        hi *= 1.5
    else:
        raise QuadratureFailure("could not certify a finite truncation point")
    lo = 1e-3
    if tail(lo) <= tol:
        return lo
    while hi > 1.05 * lo:
        mid = math.sqrt(lo * hi)
        if tail(mid) <= tol:
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# norm quadratures
# ---------------------------------------------------------------------------

def _functionals(tau: float, v_norm: bool) -> tuple:
    """(power of k, linear functional of the state) pairs: the norm integrand is
    k^(2j+dim-1) sum k^power functional(y)^2."""
    if v_norm:
        return ((0, lambda y: y[1] + tau * y[2]), (2, lambda y: y[0] + tau * y[1]),
                (2, lambda y: y[1]))
    return ((0, lambda y: y[0]),)


def _split_integrand(p: ModelParams, data: DataTriple, power: int, t: float,
                     v_norm: bool) -> Callable[[np.ndarray], Split]:
    """The norm integrand as envelope plus the harmonics of the phase r t.

    With z = e^{lam t} l + e^{alpha t}(P cos rt + S sin rt) for each functional
    of the state (the split that solve_modes_on_grid returns), z^2 is the envelope
    e^{2 lam t} l^2 + e^{2 alpha t}(P^2 + S^2)/2, plus e^{2 alpha t} times
    (P^2 - S^2)/2 cos 2rt + P S sin 2rt, plus 2 e^{(lam + alpha) t} l times
    (P cos rt + S sin rt).  The split is trusted where r t >= pi: its terms
    carry 1/r and 1/((lam - alpha)^2 + r^2), which grow near k = 0, near the
    double roots at sqrt(m1), sqrt(m2) and near the triple root.
    """
    forms = _functionals(p.tau, v_norm)

    def integrand(karr: np.ndarray) -> Split:
        y = solve_modes_on_grid(p, karr, *(prof(karr) for prof in data), t)
        lam, alpha, r, L, P, S = y.split
        plain = smooth = amp1 = amp2 = 0.0
        # the split's terms may overflow where it is not trusted; no panel reads them there
        with np.errstate(over="ignore", invalid="ignore"):
            e2a, e2l, ela = np.exp(2.0 * alpha * t), np.exp(2.0 * lam * t), np.exp((lam + alpha) * t)
            for kp, form in forms:
                weight = karr ** (power + kp)
                z, l, pp, ss = form(y), form(L), form(P), form(S)
                plain = plain + weight * z * z
                smooth = smooth + weight * (e2l * l * l + 0.5 * e2a * (pp * pp + ss * ss))
                amp1 = amp1 + weight * 2.0 * ela * l * (pp - 1j * ss)
                amp2 = amp2 + weight * e2a * (0.5 * (pp * pp - ss * ss) - 1j * pp * ss)
        return Split(plain=plain, trusted=r * t >= math.pi, smooth=smooth,
                     amps=np.stack([amp1, amp2]), phase=r * t)

    return integrand


def _norm_integral(p: ModelParams, data: DataTriple, dim: int, j: int, t: float,
                   quad_tol: float, v_norm: bool,
                   interval: tuple[float, float] | None = None) -> tuple[QuadResult, float, float]:
    """(quadrature, k_max, tail bound) of the norm integral over interval, by
    default over [0, k_max], the certified cut, whose tail bound is at most
    quad_tol / 2; the quadrature's error target is the other half.  With an
    interval, k_max is its end and the tail bound 0.

    One adaptive_quadrature pass integrates the split integrand
    (_split_integrand).  Its break points are the integrand's own: the
    double roots sqrt(m1), sqrt(m2) and the octaves of k0 = 2 pi / t.  Near
    k = 0, where r t < pi and the split is not trusted, the pass bisects the
    whole integrand while its phase turns by more than pi, as on every other
    untrusted panel.
    """
    _check_orders(dim, j)
    t = float(_times(t))
    _tolerance(quad_tol)
    if all(prof.amplitude == 0.0 for prof in data):
        return QuadResult(0.0, 0.0, 0, 0), 0.0, 0.0
    tail_bound = 0.0
    if interval is None:
        tail = _norm_tail(p, data, dim, j, t, v_norm)
        lo, hi = 0.0, _kmax_certified(tail, 0.5 * quad_tol)
        tail_bound = tail(hi)
    else:
        lo, hi = interval

    thr = cardano_thresholds(p)
    edges = [] if thr.m1 is None else [math.sqrt(thr.m1), math.sqrt(thr.m2)]
    if t > 0.0:
        k0 = 2.0 * math.pi / t
        edges = np.concatenate([edges, k0 * 2.0 ** np.arange(math.ceil(math.log2(hi / k0)))])
    quad = adaptive_quadrature(_split_integrand(p, data, 2 * j + dim - 1, t, v_norm), lo, hi,
                               0.5 * quad_tol, initial_edges=edges)
    return replace(quad, value=max(quad.value, 0.0)), hi, tail_bound


def sobolev_norm_sq(p: ModelParams, data: DataTriple, dim: int, j: int, t: float,
                    quad_tol: float) -> float:
    """J_j(t) = int_0^inf k^(2j+dim-1) |u(k,t)|^2 dk, certified to quad_tol."""
    return _norm_integral(p, data, dim, j, t, quad_tol, v_norm=False)[0].value


def v_norm_sq(p: ModelParams, data: DataTriple, dim: int, j: int, t: float,
              quad_tol: float) -> float:
    """Same quadrature for the energy-variable vector: k^(2j+dim-1) |V(k,t)|^2."""
    return _norm_integral(p, data, dim, j, t, quad_tol, v_norm=True)[0].value


def region_contributions(p: ModelParams, data: DataTriple, dim: int, j: int, t: float,
                         quad_tol: float = 1e-10) -> RegionContributions:
    """The three partial integrals over [0, nu1], [nu1, nu2], [nu2, inf) of region_split(p)."""
    _check_orders(dim, j)
    t = float(_times(t))
    _tolerance(quad_tol)
    split = region_split(p)
    k_max = _kmax_certified(_norm_tail(p, data, dim, j, t, False), 0.5 * quad_tol)
    a, b = min(split.nu1, k_max), min(split.nu2, k_max)
    low, mid, high = (_norm_integral(p, data, dim, j, t, quad_tol / 3.0, False, ab)[0].value
                      for ab in ((0.0, a), (a, b), (b, k_max)))
    return RegionContributions(low=low, mid=mid, high=high)


# ---------------------------------------------------------------------------
# decay curves and slope fitting
# ---------------------------------------------------------------------------

def fit_decay_slope(times: Sequence[float], values: Sequence[float]) -> float:
    """Least-squares slope of log(value) against x = log(1 + t) over all the
    given points, in closed form sum (x - mean x)(y - mean y) / sum (x - mean x)^2.
    Raises DegenerateFit on fewer than 3 points, a value that is not finite
    and positive, a time that is not finite and > -1, or a single x."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.size < 3:
        raise DegenerateFit(f"fit has {times.size} points; need at least 3")
    if not np.all(np.isfinite(values) & (values > 0.0)):
        raise DegenerateFit("fit contains values that are not finite and positive")
    if not np.all(np.isfinite(times) & (times > -1.0)):
        raise DegenerateFit("fit contains times that are not finite and > -1")
    x, y = np.log1p(times), np.log(values)
    if x.min() == x.max():
        raise DegenerateFit("fit has no spread in log(1 + t)")
    dx = x - x.mean()
    return float(np.sum(dx * (y - y.mean())) / np.sum(dx * dx))


def infer_data_class(data: DataTriple) -> DataClass:
    """Weighted class when both velocity-type profiles vanish at k = 0."""
    if data[1].vanishes_at_zero and data[2].vanishes_at_zero:
        return DataClass.L1_WEIGHTED
    return DataClass.L1


def decay_curve(p: ModelParams, data: DataTriple, dim: int, j: int,
                time_grid: Sequence[float], quad_tol: float,
                v_norm: bool = False) -> DecayCurve:
    """Norm time series with fitted log-log slope and theorem-bound records."""
    times = _time_grid(time_grid)

    runs = [_norm_integral(p, data, dim, j, float(t), quad_tol, v_norm) for t in times]
    values = np.array([math.sqrt(quad.value) for quad, _, _ in runs])
    if v_norm:
        # energy-vector bound: (1+t)^(-dim/4 - j/2) plus exponential remainder
        exponent = -dim / 4.0 - j / 2.0
    else:
        exponent = theorem_rates(p, dim, j, infer_data_class(data)).poly_exponent
    try:  # the slope of the upper half of the grid
        slope = fit_decay_slope(times[times.size // 2:], values[times.size // 2:])
    except DegenerateFit:
        slope = None
    bound_shape = (1.0 + times) ** exponent
    const = float(np.max(values / bound_shape))
    return DecayCurve(times=times, values=values, dim=dim, j=j, fitted_slope=slope,
                      bound_exponent=exponent, bound_constant_measured=const,
                      tau=p.tau, beta=p.beta, quad_tol=quad_tol,
                      quad_nodes=np.array([quad.n_nodes for quad, _, _ in runs]),
                      quad_error=np.array([quad.error for quad, _, _ in runs]),
                      k_max=np.array([k_max for _, k_max, _ in runs]),
                      tail_bound=np.array([tail for _, _, tail in runs]))


@dataclass(frozen=True)
class Check:
    """A judged value and its bound.  ran=False: no rule judged it (a reading,
    a rule outside its window or a suite that raised).  str(check) formats
    `text` with name, value and ok (ok or FAIL); an empty text prints nothing."""

    name: str
    value: object
    bound: float | None = None
    passed: bool = True
    ran: bool = True
    text: str = "{name}={value:.2e}"

    def __str__(self) -> str:
        return self.text.format(**vars(self), ok="ok" if self.passed else "FAIL")


def bound_verdict(curve: DecayCurve, exponent: float, abs_slack: float) -> tuple[Check, float]:
    """(check, c_early) of the early-window bound rule.

    c_early is the largest values / (1+t)^exponent over the leading half of
    the times; the check's value is the largest excess of a value over
    1.01 c_early (1+t)^exponent + abs_slack, and it passes when that is <= 0.
    """
    shape = (1.0 + curve.times) ** exponent
    n2 = max(1, curve.times.size // 2)
    c_early = float(np.max(curve.values[:n2] / shape[:n2]))
    excess = float(np.max(curve.values - (1.01 * c_early * shape + abs_slack)))
    return Check("bound_excess", excess, 0.0, excess <= 0.0), c_early


def decay_curve_rows(curve: DecayCurve) -> list[tuple[float, float, float]]:
    """(t, norm, bound_value) rows; bound_value = C_measured (1+t)^exponent."""
    bound = curve.bound_constant_measured * (1.0 + curve.times) ** curve.bound_exponent
    return list(zip(curve.times.tolist(), curve.values.tolist(), bound.tolist()))


_DIAGNOSTICS = ("quad_nodes", "quad_error", "k_max", "tail_bound")


def decay_curve_summary(curve: DecayCurve) -> dict:
    """JSON-ready summary with the full parameter record for provenance, and
    the per-time quadrature diagnostics of a curve that carries them."""
    return {
        "tau": curve.tau,
        "beta": curve.beta,
        "dim": curve.dim,
        "j": curve.j,
        "quad_tol": curve.quad_tol,
        "fitted_slope": curve.fitted_slope,
        "bound_exponent": curve.bound_exponent,
        "bound_constant_measured": curve.bound_constant_measured,
        "n_times": int(curve.times.size),
        "t_min": float(curve.times[0]),
        "t_max": float(curve.times[-1]),
    } | {name: getattr(curve, name).tolist() for name in _DIAGNOSTICS
         if getattr(curve, name) is not None}


def _report(curve: DecayCurve, json_rows: bool) -> tuple[dict, list[tuple[float, float, float]]]:
    """The `mgt decay` summary, with bound_verdict at a slack of 10 quad_tol, and
    the curve's rows, also in the summary as {t, norm, bound_value} with json_rows."""
    summary = decay_curve_summary(curve)
    check, summary["bound_constant_early_window"] = bound_verdict(
        curve, curve.bound_exponent, 10.0 * curve.quad_tol)
    summary["verdict"] = "WITHIN_BOUND" if check.passed else "VIOLATION"
    rows = decay_curve_rows(curve)
    if json_rows:
        summary["rows"] = [{"t": t, "norm": v, "bound_value": b} for t, v, b in rows]
    return summary, rows


# ---------------------------------------------------------------------------
# integral-lemma verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LemmaRatioSeries:
    """Ratio of one verified integral to its bound shape along a time grid, with each
    time's closed-form bound, integrand evaluations, quadrature error estimate
    and the error target it met, and `check`, integral_lemma_check's bound rule."""

    name: str
    times: np.ndarray
    ratios: np.ndarray
    max_ratio: float
    bound: np.ndarray
    quad_nodes: np.ndarray
    quad_error: np.ndarray
    quad_tol: np.ndarray
    check: Check


@dataclass(frozen=True)
class IntegralLemmaReport:
    dim: int
    j: int
    c: float
    series: dict[str, LemmaRatioSeries]
    #: the bound constant (1/2) c^-(dim+j-2)/2 Gamma((dim+j-2)/2) of the global
    #: sine inequality, and the sharp large-time limit (half of it)
    sine_global_bound_constant: float | None
    sine_global_sharp_limit: float | None


def _ratio_series(name: str, times: np.ndarray, rows: Sequence[dict], shape: np.ndarray,
                  combo: str) -> LemmaRatioSeries:
    """Kernel `name`'s series from its _lemma_quadratures rows at the times where
    it has one; shape is its bound shape on the whole time array."""
    at = np.array([name in row for row in rows])
    quads, quad_tol, bound = zip(*(row[name] for row in rows if name in row))
    times, quad_tol, bound = times[at], np.array(quad_tol), np.array(bound)
    values = np.array([quad.value for quad in quads])
    excess = values - (bound + quad_tol)
    worst = int(np.argmax(excess))  # the first NaN where a value is NaN
    ok = bool(excess[worst] <= 0.0)
    ratios = values / shape[at]
    return LemmaRatioSeries(name=name, times=times, ratios=ratios,
                            max_ratio=float(ratios.max()), bound=bound,
                            quad_nodes=np.array([quad.n_nodes for quad in quads]),
                            quad_error=np.array([quad.error for quad in quads]),
                            quad_tol=quad_tol,
                            check=Check(f"{name}_bound_excess", float(excess[worst]), 0.0, ok,
                                        text="" if ok else "{name}={value:.2e}"
                                        f"({combo},t={times[worst]:g})"))


def _lemma_split(c: float, pw: int, t: float, sine: bool) -> Callable[[np.ndarray], Split]:
    """An oscillating lemma kernel, with w = r^pw e^(-c r^2 t), as a Split with one
    harmonic of the phase 2tr: w cos^2(tr) = w/2 + (w/2) cos 2tr, trusted
    everywhere, or w sin^2(tr)/r^2 = w/(2r^2) - (w/(2r^2)) cos 2tr, trusted
    where r t >= pi (the split's terms grow like 1/r^2 near r = 0, where they
    cancel).  Untrusted panels are bisected until 2tr turns by at most pi."""

    def integrand(r: np.ndarray) -> Split:
        w = r**pw * np.exp(-c * r * r * t)
        if sine:
            trusted = r * t >= math.pi
            sinc = np.where(r > 0.0, np.sin(t * r) / np.where(r > 0.0, r, 1.0), t)
            plain = w * sinc**2
            smooth = np.where(trusted, 0.5 * w / np.where(trusted, r * r, 1.0), 0.0)
            harmonic = -smooth
        else:
            trusted = np.ones(r.shape, dtype=bool)
            plain = w * np.cos(t * r) ** 2
            smooth = harmonic = 0.5 * w
        return Split(plain=plain, trusted=trusted, smooth=smooth, amps=harmonic[None],
                     phase=2.0 * t * r)

    return integrand


def _lemma_quadratures(dim: int, j: int, c: float,
                       t: float) -> dict[str, tuple[QuadResult, float, float]]:
    """name -> (quadrature, its error target, its closed-form upper bound) of each
    lemma kernel at one time t; sine_global only where dim + j >= 3 and t > 0,
    cut where r^(dim+j-3) e^(-c r^2 t) leaves a tail <= 1e-16.

    The bounds: with a = (dim+j)/2, z = c t and w = r^(2b-1) e^(-z r^2), P(b) =
    min(1/(2b), Gamma(b)/(2 z^b)) bounds int_0^1 w dr, exactly at z = 0 and as
    z -> inf, and one integration by parts bounds |int_0^h w cos 2tr dr| by
    (2 w* - w(0))/(2t), w* = w(min(h, sqrt((b - 1/2)/z))) the peak of the
    unimodal w.  cos^2 = (1 + cos 2tr)/2, sin^2 = (1 - cos 2tr)/2 and
    sin^2 x <= min(1, x^2) do the rest."""
    a, z, pw = 0.5 * (dim + j), c * t, dim + j - 1
    has_global = dim + j >= 3 and t > 0.0
    try:
        tol = max(1e-15, 1e-6 * (1.0 + t) ** (-(dim + j) / 2.0))
        sine_tol = max(1e-15, tol * (1.0 + t) ** 2)
        global_tol = max(1e-16, 1e-6 * t ** (-0.5 * (dim + j - 2))) if has_global else None
    except OverflowError:  # Python's float ** raises where numpy would give inf
        raise QuadratureFailure(f"lemma error target out of float range at t = {t:g}") from None

    def full(b: float) -> float:  # int_0^inf w dr
        return 0.5 * math.exp(math.lgamma(b) - b * math.log(z))

    def whole(b: float) -> float:  # P(b): Gamma(b)/z^b >= 1/b where lgamma(b+1) >= b log z
        return 0.5 / b if z == 0.0 or math.lgamma(b + 1.0) >= b * math.log(z) else full(b)

    def by_parts(b: float, h: float) -> float:
        r2 = min(h * h, (b - 0.5) / z) if z > 0.0 else h * h
        return (2.0 * r2 ** (b - 0.5) * math.exp(-z * r2) - (b == 0.5)) / (2.0 * t)

    edges = None if t == 0.0 else [math.pi / t]
    cosine, sine = _lemma_split(c, pw, t, False), _lemma_split(c, pw, t, True)
    plain = whole(a)
    rows = {
        "plain": (adaptive_quadrature(lambda r: r**pw * np.exp(-c * r * r * t), 0.0, 1.0, tol),
                  tol, plain),
        "cosine": (adaptive_quadrature(cosine, 0.0, 1.0, tol), tol,
                   0.5 * (plain + (min(plain, by_parts(a, 1.0)) if t > 0.0 else plain))),
        "sine_low": (adaptive_quadrature(sine, 0.0, 1.0, sine_tol, initial_edges=edges), sine_tol,
                     min(t * t * plain, whole(a - 1.0) if a > 1.0 else math.inf)),
    }
    if has_global:
        hi = _kmax_certified(lambda K: _gauss_tail(dim + j - 3, math.sqrt(c * t), K), 1e-16)
        g = full(a - 1.0)
        rows["sine_global"] = (adaptive_quadrature(sine, 0.0, hi, global_tol, initial_edges=edges),
                               global_tol, 0.5 * (g + min(g, by_parts(a - 1.0, math.inf))))
    return rows


def integral_lemma_check(dim: int, j: int, c: float,
                         time_grid: Sequence[float]) -> IntegralLemmaReport:
    """Verify the radialized kernel inequalities behind the decay theorems.

    Checks, on each time of the grid,

      plain:       int_0^1 r^(j+dim-1) e^(-c r^2 t) dr            vs (1+t)^-(dim+j)/2
      cosine:      same with |cos(t r)|^2                         vs (1+t)^-(dim+j)/2
      sine_low:    same with |sin(t r)/r|^2                       vs (1+t)^(2-(dim+j)/2)
      sine_global: int_0^inf r^(j+dim-1) e^(-c r^2 t)|sin(tr)/r|^2 dr vs t^-((dim+j-2)/2),
                   only when dim + j >= 3 and t > 0.

    plain is integrated whole.  The three oscillating kernels are Splits:
    cos^2 = (1 + cos 2tr)/2 and sin^2 = (1 - cos 2tr)/2 make each a
    smooth part plus one harmonic of the phase 2 t r, integrated by Levin
    collocation with no width cap; below r t = pi the sine kernels are
    integrated whole (_lemma_split).  Each series carries its per-time node
    counts, error estimates and error targets, and its bound rule as a check
    `<kernel>_bound_excess`: the largest value - (closed-form bound + error
    target), passing at <= 0 (NaN fails; a failure prints dim, j and the worst
    t).  The closed-form bounds (_lemma_quadratures) are sharp as t -> inf but
    for sine_low.

    Raises QuadratureFailure where an error target leaves the float range.
    """
    _check_orders(dim, j)
    if not (isinstance(c, numbers.Real) and 0.0 < c < math.inf):
        raise InvalidInput(f"need a finite c > 0, got {c}")
    times = _time_grid(time_grid)

    rows = [_lemma_quadratures(dim, j, c, float(t)) for t in times]
    a = 0.5 * (dim + j)
    with np.errstate(divide="ignore"):  # t^(1-a) at t = 0, where sine_global has no row
        base = (1.0 + times) ** -a
        shapes = {"plain": base, "cosine": base, "sine_low": (1.0 + times) ** (2.0 - a),
                  "sine_global": times ** (1.0 - a)}
    combo = f"dim={dim},j={j}"
    series = {name: _ratio_series(name, times, rows, shape, combo)
              for name, shape in shapes.items() if any(name in row for row in rows)}

    bound_const = sharp = None
    if a > 1.0:  # Gamma(a - 1) is finite and positive
        bound_const = 0.5 * c ** (1.0 - a) * math.gamma(a - 1.0)
        sharp = 0.5 * bound_const
    return IntegralLemmaReport(dim=dim, j=j, c=c, series=series,
                               sine_global_bound_constant=bound_const,
                               sine_global_sharp_limit=sharp)
