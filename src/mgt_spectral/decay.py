"""Sobolev-norm decay measurement by quadrature over the frequency magnitude.

For radially symmetric frequency-space data the squared Sobolev norm of
order j in dimension N is proportional to

    J_j(t) = int_0^inf k^(2j + N - 1) |u(k, t)|^2 dk,

with the dimensional sphere-area constant deliberately dropped: every decay
statement under test concerns rates and relative constants, which are
invariant under a fixed multiplicative factor.

Truncation of the infinite range is certified: the mode energy is
nonincreasing and bounded by a Gaussian-type envelope of the initial data,
and beyond the truncation point the measured Lyapunov decay factor
exp(-gamma5 rho(K) t) shrinks the admissible tail further, which is what
makes the large-time sweeps cheap.  Oscillation of the integrand (phase
roughly t * k * sqrt(beta/tau)) is resolved by capping the quadrature's
subinterval width.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from . import lyapunov
from .errors import DegenerateFit, EmptyInput, GridError, QuadratureFailure, ToleranceFailure
from .mode_solver import solve_modes_on_grid
from .params import DataClass, ModelParams, cardano_thresholds, high_frequency_rate, theorem_rates
from .quadrature import adaptive_quadrature
from .spectrum import eigenvalues

_NODE_BUDGET = 1_000_000


class ProfileKind(Enum):
    GAUSSIAN = "Gaussian"
    MOMENT_FREE_GAUSSIAN = "MomentFreeGaussian"
    CUSTOM = "Custom"


@dataclass(frozen=True)
class FrequencyProfile:
    """Radial frequency-space profile for one component of the initial data.

    Gaussian:            amplitude * exp(-(scale*k)^2 / 2)
    MomentFreeGaussian:  amplitude * (scale*k) * exp(-(scale*k)^2 / 2),
                         the stand-in for zero-mean data with a finite first
                         moment (vanishes at k = 0, bounded by amplitude*scale*k).
    Custom:              a user evaluator; (amplitude, scale) then act as the
                         envelope contract |f(k)| <= |amplitude| * (1 + scale*k)
                         * exp(-(scale*k)^2 / 2), which the tail certification
                         relies on.
    """

    kind: ProfileKind
    scale: float = 1.0
    amplitude: float = 1.0
    evaluator: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise ValueError(f"profile scale must be positive, got {self.scale}")
        if not math.isfinite(self.amplitude):
            raise ValueError("profile amplitude must be finite")
        if self.kind is ProfileKind.CUSTOM and self.evaluator is None and self.amplitude != 0.0:
            raise ValueError("custom profile needs an evaluator")

    def __call__(self, k: np.ndarray) -> np.ndarray:
        k = np.asarray(k, dtype=float)
        if self.amplitude == 0.0:
            return np.zeros_like(k)
        s = self.scale * k
        if self.kind is ProfileKind.GAUSSIAN:
            return self.amplitude * np.exp(-0.5 * s * s)
        if self.kind is ProfileKind.MOMENT_FREE_GAUSSIAN:
            return self.amplitude * s * np.exp(-0.5 * s * s)
        return np.asarray(self.evaluator(k), dtype=float)

    @property
    def vanishes_at_zero(self) -> bool:
        if self.amplitude == 0.0:
            return True
        if self.kind is ProfileKind.MOMENT_FREE_GAUSSIAN:
            return True
        if self.kind is ProfileKind.CUSTOM:
            return bool(abs(float(self.evaluator(np.array([0.0]))[0])) == 0.0)
        return False

    @staticmethod
    def gaussian(scale: float = 1.0, amplitude: float = 1.0) -> "FrequencyProfile":
        return FrequencyProfile(ProfileKind.GAUSSIAN, scale, amplitude)

    @staticmethod
    def moment_free(scale: float = 1.0, amplitude: float = 1.0) -> "FrequencyProfile":
        return FrequencyProfile(ProfileKind.MOMENT_FREE_GAUSSIAN, scale, amplitude)

    @staticmethod
    def zero() -> "FrequencyProfile":
        return FrequencyProfile(ProfileKind.GAUSSIAN, 1.0, 0.0)


DataTriple = tuple[FrequencyProfile, FrequencyProfile, FrequencyProfile]


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


def region_split(p: ModelParams) -> RegionSplit:
    """Frequency regions: nu1 stays below sqrt(m1), nu2 above sqrt(m2)."""
    thr = cardano_thresholds(p)
    if thr.m1 is None:
        return RegionSplit(nu1=0.5, nu2=2.0)
    nu1 = min(0.5, 0.9 * math.sqrt(thr.m1))
    nu2 = max(2.0, 1.1 * math.sqrt(thr.m2))
    return RegionSplit(nu1=nu1, nu2=nu2)


def region_rates(p: ModelParams, split: RegionSplit | None = None) -> tuple[float, float]:
    """Exponential rates (c3, c4) of the high and middle frequency regions."""
    split = split or region_split(p)
    c3 = high_frequency_rate(p)
    lam2 = eigenvalues(p, split.nu1).lambdas[1]
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


def _gauss_tail(m: int, s: float, K: float) -> float:
    """Upper bound on int_K^inf k^m exp(-(s k)^2) dk for an integer power m."""
    if K <= 0.0:
        K = 1e-12
    z = (s * K) ** 2
    if m <= -2:
        return math.exp(-z) * K ** (m + 1) / (-m - 1.0)
    if m == -1:
        # the one order without an elementary closed form (N + 2j <= 2 only)
        from scipy.special import exp1
        return 0.5 * float(exp1(z))
    return 0.5 * s ** (-(m + 1.0)) * _upper_gamma(m + 1, z)


def _envelope_monomials(p: ModelParams, data: DataTriple) -> tuple[list[tuple[float, int]], float]:
    """Monomials (coef, power) with E(k, 0) <= sum coef k^power exp(-(s_min k)^2)."""
    active = [prof for prof in data if prof.amplitude != 0.0]
    if not active:
        return [], 1.0
    s_min = min(prof.scale for prof in active)

    def lin(prof: FrequencyProfile) -> tuple[float, float]:
        # |profile(k)| <= a + b*k  (times the shared Gaussian factor)
        return abs(prof.amplitude), abs(prof.amplitude) * prof.scale

    a0, b0 = lin(data[0])
    a1, b1 = lin(data[1])
    a2, b2 = lin(data[2])
    tau, beta = p.tau, p.beta

    def sq(a: float, b: float, shift: int) -> list[tuple[float, int]]:
        return [(a * a, shift), (2 * a * b, shift + 1), (b * b, shift + 2)]

    mono: list[tuple[float, int]] = []
    mono += sq(a1 + tau * a2, b1 + tau * b2, 0)                      # |u1 + tau u2|^2
    w = tau * (beta - tau)
    mono += [(w * c, pw) for c, pw in sq(a1, b1, 2)]                 # tau(beta-tau) k^2 |u1|^2
    mono += sq(a0 + tau * a1, b0 + tau * b1, 2)                      # k^2 |u0 + tau u1|^2
    return [(0.5 * c, pw) for c, pw in mono if c != 0.0], s_min


@functools.lru_cache
def _cached_weights(p: ModelParams) -> lyapunov.LyapunovWeights:
    return lyapunov.default_weights(p)


def _tail_bound(p: ModelParams, data: DataTriple, dim: int, j: int, t: float,
                K: float, v_norm: bool) -> float:
    """Certified bound on the integral over [K, inf)."""
    mono, s_min = _envelope_monomials(p, data)
    if not mono:
        return 0.0
    w = _cached_weights(p)
    rho_k = K * K / (1.0 + K * K)
    decay_factor = min(1.0, (w.equiv_hi / w.equiv_lo) * math.exp(-w.gamma5 * rho_k * t))
    shift = 2 * j + dim - (1 if v_norm else 3)
    amp = w.v_hi * decay_factor
    if not v_norm:
        amp *= (1.0 + p.tau) ** 2
    return amp * sum(c * _gauss_tail(pw + shift, s_min, K) for c, pw in mono)


def _kmax_certified(p: ModelParams, data: DataTriple, dim: int, j: int, t: float,
                    tail_tol: float, v_norm: bool) -> float:
    """Smallest truncation point whose certified tail is below tail_tol."""
    hi = 1.0
    for _ in range(400):
        if _tail_bound(p, data, dim, j, t, hi, v_norm) <= tail_tol:
            break
        hi *= 1.5
    else:
        raise QuadratureFailure("could not certify a finite truncation point")
    lo = 1e-3
    if _tail_bound(p, data, dim, j, t, lo, v_norm) <= tail_tol:
        return lo
    for _ in range(60):
        mid = math.sqrt(lo * hi)
        if _tail_bound(p, data, dim, j, t, mid, v_norm) <= tail_tol:
            hi = mid
        else:
            lo = mid
    return 1.05 * hi


# ---------------------------------------------------------------------------
# norm quadratures
# ---------------------------------------------------------------------------

def _validate_norm_args(dim: int, j: int, t: float, quad_tol: float) -> None:
    if not (isinstance(dim, (int, np.integer)) and dim >= 1):
        raise ValueError(f"dimension must be an integer >= 1, got {dim}")
    if not (isinstance(j, (int, np.integer)) and j >= 0):
        raise ValueError(f"derivative order must be an integer >= 0, got {j}")
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"time must be finite and >= 0, got {t}")
    if not (0.0 < quad_tol):
        raise ValueError(f"quadrature tolerance must be positive, got {quad_tol}")


def _oscillation_cap(p: ModelParams, t: float) -> float | None:
    if t <= 0.0:
        return None
    return math.pi / (4.0 * t * math.sqrt(p.beta / p.tau))


def _norm_integral(p: ModelParams, data: DataTriple, dim: int, j: int, t: float,
                   quad_tol: float, v_norm: bool,
                   region: tuple[float, float] | None = None,
                   k_max: float | None = None) -> float:
    _validate_norm_args(dim, j, t, quad_tol)
    if all(prof.amplitude == 0.0 for prof in data):
        return 0.0
    split = region_split(p)
    if k_max is None:
        k_max = _kmax_certified(p, data, dim, j, t, 0.5 * quad_tol, v_norm)
    if region is None:
        lo, hi = 0.0, k_max
    else:
        lo, hi = region
        if math.isinf(hi):
            hi = max(lo, k_max)
    if hi <= lo:
        return 0.0

    power = 2 * j + dim - 1
    tau = p.tau

    def integrand(karr: np.ndarray) -> np.ndarray:
        u0, u1, u2 = data[0](karr), data[1](karr), data[2](karr)
        u, v, w = solve_modes_on_grid(p, karr, u0, u1, u2, t)
        if v_norm:
            val = (np.abs(v + tau * w) ** 2
                   + karr * karr * (np.abs(u + tau * v) ** 2 + np.abs(v) ** 2))
        else:
            val = np.abs(u) ** 2
        return karr**power * val

    res = adaptive_quadrature(
        integrand, lo, hi, 0.5 * quad_tol,
        max_width=_oscillation_cap(p, t), node_budget=_NODE_BUDGET,
        initial_edges=[split.nu1, split.nu2], min_intervals=8)
    return max(res.value, 0.0)


def sobolev_norm_sq(p: ModelParams, data: DataTriple, dim: int, j: int, t: float,
                    quad_tol: float) -> float:
    """J_j(t) = int_0^inf k^(2j+dim-1) |u(k,t)|^2 dk, certified to quad_tol."""
    return _norm_integral(p, data, dim, j, t, quad_tol, v_norm=False)


def v_norm_sq(p: ModelParams, data: DataTriple, dim: int, j: int, t: float,
              quad_tol: float) -> float:
    """Same quadrature for the energy-variable vector: k^(2j+dim-1) |V(k,t)|^2."""
    return _norm_integral(p, data, dim, j, t, quad_tol, v_norm=True)


def region_contributions(p: ModelParams, data: DataTriple, dim: int, j: int, t: float,
                         split: RegionSplit | None = None,
                         quad_tol: float = 1e-10) -> RegionContributions:
    """The three partial integrals over [0, nu1], [nu1, nu2], [nu2, inf)."""
    split = split or region_split(p)
    if not (0.0 < split.nu1 < split.nu2):
        raise GridError(f"invalid region split {split}")
    k_max = _kmax_certified(p, data, dim, j, t, 0.5 * quad_tol, v_norm=False) \
        if any(prof.amplitude != 0.0 for prof in data) else split.nu2
    tol3 = quad_tol / 3.0
    low = _norm_integral(p, data, dim, j, t, tol3, False,
                         region=(0.0, min(split.nu1, k_max)), k_max=k_max)
    mid = _norm_integral(p, data, dim, j, t, tol3, False,
                         region=(min(split.nu1, k_max), min(split.nu2, k_max)), k_max=k_max)
    high = _norm_integral(p, data, dim, j, t, tol3, False,
                          region=(min(split.nu2, k_max), math.inf), k_max=k_max)
    return RegionContributions(low=low, mid=mid, high=high)


# ---------------------------------------------------------------------------
# decay curves and slope fitting
# ---------------------------------------------------------------------------

def fit_decay_slope(times: Sequence[float], values: Sequence[float],
                    window: tuple[int, int] | None = None) -> float:
    """Least-squares slope of log(value) against log(1 + t) on a window."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if window is None:
        window = (times.size // 2, times.size)
    lo, hi = window
    tw, vw = times[lo:hi], values[lo:hi]
    if tw.size < 3:
        raise DegenerateFit(f"fit window has {tw.size} points; need at least 3")
    if np.any(vw <= 0.0):
        raise DegenerateFit("fit window contains nonpositive values")
    slope = np.polyfit(np.log1p(tw), np.log(vw), 1)[0]
    return float(slope)


def infer_data_class(data: DataTriple) -> DataClass:
    """Weighted class when both velocity-type profiles vanish at k = 0."""
    if data[1].vanishes_at_zero and data[2].vanishes_at_zero:
        return DataClass.L1_WEIGHTED
    return DataClass.L1


def decay_curve(p: ModelParams, data: DataTriple, dim: int, j: int,
                time_grid: Sequence[float], quad_tol: float,
                v_norm: bool = False) -> DecayCurve:
    """Norm time series with fitted log-log slope and theorem-bound records."""
    times = np.asarray(list(time_grid), dtype=float)
    if times.size == 0:
        raise EmptyInput("empty time grid")
    if np.any(~np.isfinite(times)) or np.any(times < 0.0) or np.any(np.diff(times) <= 0.0):
        raise GridError("time grid must be finite, nonnegative, strictly ascending")

    values = np.array([
        math.sqrt(max(_norm_integral(p, data, dim, j, float(t), quad_tol, v_norm), 0.0))
        for t in times
    ])
    if v_norm:
        # energy-vector bound: (1+t)^(-dim/4 - j/2) plus exponential remainder
        exponent = -dim / 4.0 - j / 2.0
    else:
        exponent = theorem_rates(p, dim, j, infer_data_class(data)).poly_exponent
    try:
        slope = fit_decay_slope(times, values)
    except DegenerateFit:
        slope = None
    bound_shape = (1.0 + times) ** exponent
    const = float(np.max(values / bound_shape)) if values.size else 0.0
    return DecayCurve(times=times, values=values, dim=dim, j=j, fitted_slope=slope,
                      bound_exponent=exponent, bound_constant_measured=const,
                      tau=p.tau, beta=p.beta, quad_tol=quad_tol)


def bound_verdict(curve: DecayCurve, exponent: float, abs_slack: float) -> tuple[bool, float]:
    """(within, c_early) of the early-window bound rule.

    c_early is the largest values / (1+t)^exponent over the leading half of
    the times; the curve is within the bound when every value is at most
    1.01 c_early (1+t)^exponent + abs_slack.
    """
    shape = (1.0 + curve.times) ** exponent
    n2 = max(1, curve.times.size // 2)
    c_early = float(np.max(curve.values[:n2] / shape[:n2]))
    return bool(np.all(curve.values <= 1.01 * c_early * shape + abs_slack)), c_early


def decay_curve_rows(curve: DecayCurve) -> list[tuple[float, float, float]]:
    """(t, norm, bound_value) rows; bound_value = C_measured (1+t)^exponent."""
    bound = curve.bound_constant_measured * (1.0 + curve.times) ** curve.bound_exponent
    return list(zip(curve.times.tolist(), curve.values.tolist(), bound.tolist()))


def decay_curve_summary(curve: DecayCurve) -> dict:
    """JSON-ready summary with the full parameter record for provenance."""
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
    }


# ---------------------------------------------------------------------------
# integral-lemma verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LemmaRatioSeries:
    """Ratio of one verified integral to its bound shape along a time grid."""

    name: str
    times: np.ndarray
    ratios: np.ndarray
    max_ratio: float
    tail_slope: float
    stable: bool


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


def _lemma_integral(kernel: Callable[[np.ndarray], np.ndarray], hi: float,
                    t: float, tol: float) -> float:
    cap = None if t <= 0.0 else math.pi / (4.0 * t)
    res = adaptive_quadrature(kernel, 0.0, hi, tol, max_width=cap,
                              node_budget=_NODE_BUDGET, min_intervals=8)
    return res.value


def _ratio_series(name: str, times: np.ndarray, integrals: np.ndarray,
                  shapes: np.ndarray) -> LemmaRatioSeries:
    ratios = integrals / shapes
    if np.any(~np.isfinite(ratios)):
        raise ToleranceFailure(f"{name}: nonfinite ratio encountered")
    # growth detection needs the asymptotic regime: a short grid only sees the
    # transient rise toward the bound constant, which is not a violation
    half = ratios.size // 2
    if ratios.size >= 8 and times[-1] >= 100.0 * max(times[half], 1e-12):
        tail_slope = float(np.polyfit(np.log1p(times[half:]),
                                      np.log(np.maximum(ratios[half:], 1e-300)), 1)[0])
    else:
        tail_slope = 0.0
    stable = tail_slope <= 0.05
    if not stable:
        raise ToleranceFailure(
            f"{name}: ratio grows like (1+t)^{tail_slope:.3f}; bound exponent violated")
    return LemmaRatioSeries(name=name, times=times, ratios=ratios,
                            max_ratio=float(ratios.max()), tail_slope=tail_slope,
                            stable=stable)


def integral_lemma_check(dim: int, j: int, c: float,
                         time_grid: Sequence[float]) -> IntegralLemmaReport:
    """Verify the radialized kernel inequalities behind the decay theorems.

    Checks, on each time of the grid,

      plain:       int_0^1 r^(j+dim-1) e^(-c r^2 t) dr            vs (1+t)^-(dim+j)/2
      cosine:      same with |cos(t r)|^2                         vs (1+t)^-(dim+j)/2
      sine_low:    same with |sin(t r)/r|^2                       vs (1+t)^(2-(dim+j)/2)
      sine_global: int_0^inf r^(j+dim-1) e^(-c r^2 t)|sin(tr)/r|^2 dr vs t^-((dim+j-2)/2),
                   only when dim + j >= 3 and t > 0.

    Raises ToleranceFailure when any ratio keeps growing along the grid.
    """
    if dim < 1 or j < 0:
        raise ValueError(f"need dim >= 1 and j >= 0, got dim={dim}, j={j}")
    if not (c > 0.0):
        raise ValueError(f"need c > 0, got {c}")
    times = np.asarray(list(time_grid), dtype=float)
    if times.size == 0:
        raise EmptyInput("empty time grid")
    times = np.sort(times)

    pw = j + dim - 1
    series: dict[str, LemmaRatioSeries] = {}

    def kernels(t: float):
        def plain(r):
            return r**pw * np.exp(-c * r * r * t)

        def cosine(r):
            return plain(r) * np.cos(t * r) ** 2

        def sine(r):
            sinc = np.where(r > 0.0, np.sin(t * r) / np.where(r > 0.0, r, 1.0), t)
            return plain(r) * sinc**2

        return plain, cosine, sine

    ints = {"plain": [], "cosine": [], "sine_low": []}
    for t in times:
        plain, cosine, sine = kernels(float(t))
        tol = max(1e-15, 1e-6 * (1.0 + t) ** (-(dim + j) / 2.0))
        ints["plain"].append(_lemma_integral(plain, 1.0, t, tol))
        ints["cosine"].append(_lemma_integral(cosine, 1.0, t, tol))
        ints["sine_low"].append(_lemma_integral(sine, 1.0, t, max(1e-15, tol * (1.0 + t) ** 2)))

    shape_base = (1.0 + times) ** (-(dim + j) / 2.0)
    series["plain"] = _ratio_series("plain", times, np.array(ints["plain"]), shape_base)
    series["cosine"] = _ratio_series("cosine", times, np.array(ints["cosine"]), shape_base)
    series["sine_low"] = _ratio_series("sine_low", times, np.array(ints["sine_low"]),
                                       (1.0 + times) ** (2.0 - (dim + j) / 2.0))

    bound_const = sharp = None
    if dim + j >= 3:
        a = 0.5 * (dim + j - 2)
        bound_const = 0.5 * c ** (-a) * math.gamma(a)
        sharp = 0.5 * bound_const
        tpos = times[times > 0.0]
        vals = []
        for t in tpos:
            _, _, sine = kernels(float(t))
            # truncate where r^(dim+j-3) e^(-c r^2 t) is negligible
            hi = 1.0
            while _gauss_tail(dim + j - 3, math.sqrt(c * t), hi) > 1e-16:
                hi *= 1.5
            tol = max(1e-16, 1e-6 * float(t) ** (-a))
            vals.append(_lemma_integral(sine, hi, float(t), tol))
        series["sine_global"] = _ratio_series("sine_global", tpos, np.array(vals),
                                              tpos ** (-a))

    return IntegralLemmaReport(dim=dim, j=j, c=c, series=series,
                               sine_global_bound_constant=bound_const,
                               sine_global_sharp_limit=sharp)


def report_to_json(report: IntegralLemmaReport) -> str:
    payload = {
        "dim": report.dim, "j": report.j, "c": report.c,
        "sine_global_bound_constant": report.sine_global_bound_constant,
        "sine_global_sharp_limit": report.sine_global_sharp_limit,
        "series": {
            name: {"max_ratio": s.max_ratio, "tail_slope": s.tail_slope, "stable": s.stable}
            for name, s in report.series.items()
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True)
