"""Correctness checks that do not trust the program's own verdicts.

Every check recomputes its reference from the inputs the benchmark generated
and from the values the program returned or printed, without calling into
mgt_spectral: mode rows against scipy.linalg.expm, atlas roots against the
benchmark's own residual and Vieta sums, classify thresholds against an exact
rational discriminant solve, decay curves against the benchmark's own slope
fit and bound rule, and verify reports against the thresholds of each suite
and, for the lemma suite, against the benchmark's own quadrature.

Each check returns None when the output passes and a short cause string when
it fails; the causes are what the benchmark counts failures by.
"""

from __future__ import annotations

import functools
import math
import re
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import scipy.linalg
from scipy import integrate

#: Relative residual budget of returned roots (spectrum.TOL_RESIDUAL).
TOL_RESIDUAL = 1e-9
#: Closed form against the reference propagator, relative to 1 + |y0|.
ORACLE_BOUND = 1e-6
#: Relative accuracy demanded of the printed Cardano thresholds.
TOL_THRESHOLD = 1e-10
#: Slack and absolute allowance of the early-window bound rule.
BOUND_SLACK = 1.01
BOUND_ABS_QUAD_TOLS = 10.0
#: Headline N=3 slope must lie within this distance of -1/4.
SLOPE_TOL = 0.05
#: The asymptotic window starts once t_min * (beta - tau) reaches this.
ASYMPTOTIC_WINDOW = 3.0


def _floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",")]


# ---------------------------------------------------------------------------
# mode
# ---------------------------------------------------------------------------

def mode_matrix(tau: float, beta: float, k: float) -> np.ndarray:
    k2 = k * k
    return np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                     [-k2 / tau, -beta * k2 / tau, -1.0 / tau]])


def _energy(tau: float, beta: float, k: float, y: np.ndarray) -> float:
    u, v, w = y
    return 0.5 * (abs(v + tau * w) ** 2 + tau * (beta - tau) * k * k * abs(v) ** 2
                  + k * k * abs(u + tau * v) ** 2)


def _v_sq(tau: float, k: float, y: np.ndarray) -> float:
    u, v, w = y
    return abs(v + tau * w) ** 2 + k * k * (abs(u + tau * v) ** 2 + abs(v) ** 2)


def check_mode(tau: float, beta: float, k: float, y0: np.ndarray,
               times: np.ndarray, text: str) -> str | None:
    """Rows t,re_u,im_u,v_sq,energy,lyap against expm(t A) y0."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines or lines[0] != "t,re_u,im_u,v_sq,energy,lyap":
        return "mode:format"
    try:
        rows = np.array([_floats(ln) for ln in lines[1:]])
    except ValueError:
        return "mode:format"
    if rows.shape != (times.size, 6) or not np.array_equal(rows[:, 0], times):
        return "mode:format"
    if not np.all(np.isfinite(rows)):
        return "mode:nonfinite"
    a = mode_matrix(tau, beta, k)
    y0 = np.asarray(y0, dtype=float)
    scale = 1.0 + float(np.linalg.norm(y0))
    e_scale = max(1.0, _energy(tau, beta, k, y0))
    v_scale = max(1.0, _v_sq(tau, k, y0))
    for t, re_u, im_u, v_sq, energy, lyap in rows:
        y = scipy.linalg.expm(t * a) @ y0
        if abs(complex(re_u, im_u) - y[0]) > ORACLE_BOUND * scale:
            return "mode:u_vs_expm"
        if abs(energy - _energy(tau, beta, k, y)) > ORACLE_BOUND * e_scale:
            return "mode:energy_vs_expm"
        if abs(v_sq - _v_sq(tau, k, y)) > ORACLE_BOUND * v_scale:
            return "mode:v_sq_vs_expm"
        if lyap < 0.0:
            return "mode:negative_lyapunov"
    return None


# ---------------------------------------------------------------------------
# atlas
# ---------------------------------------------------------------------------

def check_atlas(tau: float, beta: float, grid: np.ndarray, text: str) -> str | None:
    """Every printed root is a root of the cubic and each triple obeys Vieta."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines or lines[0] != "k,re_l1,im_l1,re_l2,im_l2,re_l3,im_l3,pattern":
        return "atlas:format"
    try:
        rows = np.array([_floats(ln.rsplit(",", 1)[0]) for ln in lines[1:]])
    except ValueError:
        return "atlas:format"
    if rows.shape != (grid.size, 7) or not np.array_equal(rows[:, 0], grid):
        return "atlas:format"
    if not np.all(np.isfinite(rows)):
        return "atlas:nonfinite"
    k2 = (rows[:, 0] ** 2)[:, None]
    lam = rows[:, 1::2] + 1j * rows[:, 2::2]
    mag = np.abs(lam)
    res = np.abs(tau * lam**3 + lam**2 + beta * k2 * lam + k2)
    scale = np.maximum(tau * mag**3 + mag**2 + beta * k2 * mag + k2, 1e-300)
    if np.any(res > TOL_RESIDUAL * scale):
        return "atlas:residual"
    # a repeated copy of one root would pass the residual test; Vieta's sum
    # and the conjugate symmetry of real coefficients catch it
    vieta = np.abs(lam.sum(axis=1) + 1.0 / tau)
    if np.any(vieta > TOL_RESIDUAL * (1.0 / tau + mag.sum(axis=1))):
        return "atlas:vieta"
    if np.any(np.abs(lam.imag.sum(axis=1)) > TOL_RESIDUAL * (1.0 + mag.sum(axis=1))):
        return "atlas:conjugate"
    return None


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def _sqrt(x: Fraction) -> Fraction:
    with localcontext() as ctx:
        ctx.prec = 60
        root = (Decimal(x.numerator) / Decimal(x.denominator)).sqrt()
    return Fraction(root)


def exact_thresholds(tau: float, beta: float) -> tuple[float, float] | None:
    """(m1, m2): positive zeros of the cubic's discriminant in k^2, exactly.

    disc(K) = -K (4 tau beta^3 K^2 - (18 tau beta + beta^2 - 27 tau^2) K + 4),
    solved in rational arithmetic with a 60-digit square root.
    """
    t, b = Fraction(tau), Fraction(beta)
    s = 18 * t * b + b * b - 27 * t * t
    disc = s * s - 64 * t * b**3
    if disc < 0:
        return None
    root = _sqrt(disc)
    den = 8 * t * b**3
    return float((s - root) / den), float((s + root) / den)


def exact_regime(tau: float, beta: float, tol_critical: float = 1e-12) -> set[str]:
    """Acceptable regime names; both sides are allowed at the tolerance edge."""
    rel = abs(Fraction(tau) / Fraction(beta) * 9 - 1)
    side = "SubCritical" if Fraction(tau) * 9 < Fraction(beta) else "SuperCritical"
    if rel < Fraction(tol_critical) / 2:
        return {"Critical"}
    if rel > 2 * Fraction(tol_critical):
        return {side}
    return {"Critical", side}


def _line_value(text: str, key: str) -> str | None:
    m = re.search(rf"^{re.escape(key)} = (\S+)", text, re.MULTILINE)
    return m.group(1) if m else None


def check_classify(tau: float, beta: float, text: str) -> str | None:
    m = re.search(r"^regime: (\w+);", text, re.MULTILINE)
    if not m:
        return "classify:format"
    if m.group(1) not in exact_regime(tau, beta):
        return "classify:regime"
    ref = exact_thresholds(tau, beta)
    m1, m2 = _line_value(text, "m1"), _line_value(text, "m2")
    if ref is None:
        if (m1, m2) != ("absent", "absent"):
            return "classify:thresholds"
    else:
        try:
            got = (float(m1), float(m2))
        except (TypeError, ValueError):
            return "classify:thresholds"
        if any(abs(g - r) > TOL_THRESHOLD * r for g, r in zip(got, ref)):
            return "classify:thresholds"
    r = Fraction(beta) / Fraction(tau)
    c1, c2 = 27 - 18 * r - r * r, (r - 9) ** 3 * (r - 1)
    # C2 inherits the rounding of beta/tau through (r - 9)^3
    dc2 = abs(3 * (r - 9) ** 2 * (r - 1) + (r - 9) ** 3)
    try:
        got_c1, got_c2 = float(_line_value(text, "C1")), float(_line_value(text, "C2"))
    except (TypeError, ValueError):
        return "classify:format"
    if abs(got_c1 - float(c1)) > 1e-12 * abs(float(c1)):
        return "classify:c1"
    if abs(got_c2 - float(c2)) > 1e-10 * abs(float(c2)) + 8e-16 * float(r * dc2):
        return "classify:c2"
    rate = min(1.0 / beta, (beta - tau) / (2.0 * beta * tau))
    for cls, exponent in (("L1", -0.25), ("L1Weighted", -0.75)):
        m = re.search(rf"^decay bound \[{cls}, dim=3, j=0\]: \(1\+t\)\^(\S+) \+ exp\(-(\S+) t\)",
                      text, re.MULTILINE)
        if not m or float(m.group(1)) != exponent:
            return "classify:exponent"
        if abs(float(m.group(2)) - rate) > 1e-12 * rate:
            return "classify:exp_rate"
    return None


# ---------------------------------------------------------------------------
# decay curves
# ---------------------------------------------------------------------------

def slope(times: np.ndarray, values: np.ndarray) -> float:
    """Least-squares slope of log(value) on log(1 + t) over the second half."""
    n = times.size
    x, y = np.log1p(times[n // 2:]), np.log(values[n // 2:])
    xm = x - x.mean()
    return float((xm * (y - y.mean())).sum() / (xm * xm).sum())


def check_decay_curve(tau: float, beta: float, times: np.ndarray, quad_tol: float,
                      exponent: float, headline: bool, curve_times: np.ndarray,
                      values: np.ndarray, bound_exponent: float,
                      fitted_slope: float | None) -> str | None:
    """Finite, nonnegative, theorem exponent, early-window bound and slope."""
    if curve_times.shape != times.shape or not np.array_equal(curve_times, times):
        return "decay:times"
    if values.shape != times.shape or not np.all(np.isfinite(values)):
        return "decay:nonfinite"
    if np.any(values < 0.0):
        return "decay:negative"
    if bound_exponent != exponent:
        return "decay:exponent"
    if not times[0] * (beta - tau) >= ASYMPTOTIC_WINDOW:
        return None
    # the bound constant is measured on the leading half, with 1% slack after
    shape = (1.0 + times) ** exponent
    half = max(1, times.size // 2)
    c_early = float(np.max(values[:half] / shape[:half]))
    if np.any(values > BOUND_SLACK * c_early * shape + BOUND_ABS_QUAD_TOLS * quad_tol):
        return "decay:bound_rule"
    own = slope(times, values)
    if fitted_slope is None or abs(fitted_slope - own) > 1e-9 * (1.0 + abs(own)):
        return "decay:fitted_slope"
    if headline and abs(own + 0.25) > SLOPE_TOL:
        return "decay:headline_slope"
    return None


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

#: (dim, j) pairs, decay constant and time grid of the quick lemma suite.
LEMMA_COMBOS = ((1, 0), (3, 0))
LEMMA_C = 1.0
LEMMA_TIMES = (0.0, *np.geomspace(1e-2, 1e4, 12))
#: The report prints max_ratio with three decimals.
LEMMA_PRINT_TOL = 6e-4


def _lemma_integral(f, hi: float, t: float) -> float:
    # one quad per half period of sin(t r), so no piece oscillates
    edges = np.linspace(0.0, hi, min(2000, max(1, math.ceil(hi * t / math.pi))) + 1)
    return sum(integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-12, limit=200)[0]
               for a, b in zip(edges[:-1], edges[1:]))


@functools.lru_cache(maxsize=None)
def lemma_max_ratio() -> float:
    """Largest kernel-to-shape ratio of the quick lemma suite, by scipy quad.

    The kernels r^(dim+j-1) e^(-c r^2 t) times 1, cos^2(t r) and (sin(t r)/r)^2
    on [0, 1] against (1+t)^(-(dim+j)/2), (1+t)^(-(dim+j)/2) and
    (1+t)^(2-(dim+j)/2), and the last kernel on [0, inf) against
    t^(-(dim+j-2)/2) when dim + j >= 3 and t > 0. Beyond r = sqrt(80/(c t))
    the Gaussian factor is below e^-80, so the integrals stop there.
    """
    worst = 0.0
    for dim, j in LEMMA_COMBOS:
        pw, d = dim + j - 1, dim + j
        for t in LEMMA_TIMES:
            cut = math.sqrt(80.0 / (LEMMA_C * t)) if t > 0.0 else math.inf

            def plain(r, t=t):
                return r**pw * math.exp(-LEMMA_C * r * r * t)

            def sine(r, t=t):
                return plain(r) * (math.sin(t * r) / r if r > 0.0 else t) ** 2

            hi = min(1.0, cut)
            base = (1.0 + t) ** (-d / 2.0)
            ratios = [_lemma_integral(plain, hi, t) / base,
                      _lemma_integral(lambda r: plain(r) * math.cos(t * r) ** 2, hi, t) / base,
                      _lemma_integral(sine, hi, t) / (1.0 + t) ** (2.0 - d / 2.0)]
            if d >= 3 and t > 0.0:
                ratios.append(_lemma_integral(sine, cut, t) * t ** ((d - 2) / 2.0))
            worst = max(worst, *ratios)
    return worst


_SUITES = ("spectrum_sweep", "oracle_equivalence", "energy_identity",
           "gronwall_margin", "integral_lemmas", "theorem_bounds")


def _suite_ok(name: str, fields: dict[str, str], tau: float, beta: float) -> bool:
    num = {k: float(v) for k, v in fields.items() if re.fullmatch(r"[-+0-9.e]+", v)}
    if name == "spectrum_sweep":
        return (num["max_residual"] <= 1e-9 and num["max_vieta"] <= 1e-9
                and num["min_axis_dist"] > 1e-10)
    if name == "oracle_equivalence":
        return num["max_mismatch"] <= ORACLE_BOUND
    if name == "energy_identity":
        return num["max_identity_residual"] <= 1e-9
    if name == "gronwall_margin":
        return num["min_gamma5"] > 0.0 and num["max_growth"] <= 1e-8
    if name == "integral_lemmas":
        return (fields["combos"] == str(len(LEMMA_COMBOS))
                and abs(num["max_ratio"] - lemma_max_ratio()) <= LEMMA_PRINT_TOL)
    asymptotic = 1e2 * (beta - tau) >= ASYMPTOTIC_WINDOW
    if fields["asymptotic_window"] != str(asymptotic) or fields["dim1_bound"] != "ok":
        return False
    if not asymptotic:
        return True
    return (abs(num["dim3_slope"] + 0.25) <= SLOPE_TOL
            and num["weighted_slope"] <= -0.25 + SLOPE_TOL)


def check_verify(tau: float, beta: float, rc: int, text: str) -> str | None:
    """Exit code, all six suites, and each suite's numbers against its bound."""
    if rc != 0:
        return f"verify:exit{rc}"
    lines = text.splitlines()
    if len(lines) != len(_SUITES) + 2 or lines[-1] != "verify: all suites passed":
        return "verify:format"
    for name, line in zip(_SUITES, lines[1:-1]):
        m = re.fullmatch(rf"\[(PASS|FAIL)\] {name}: (.*)", line)
        if not m or m.group(1) != "PASS":
            return f"verify:{name}"
        try:
            if not _suite_ok(name, dict(re.findall(r"(\w+)=(\S+)", m.group(2))), tau, beta):
                return f"verify:{name}_numbers"
        except (KeyError, ValueError):
            return "verify:format"
    return None
