"""Model parameters and every derived constant the rest of the package consumes.

The model is the linear third-order-in-time equation

    tau * u_ttt + u_tt - lap(u) - beta * lap(u_t) = 0      on R^N,

after normalizing the wave speed to one.  Everything here is closed-form
arithmetic on (tau, beta): the Cardano thresholds m1, m2 that separate the
root-pattern windows of the characteristic cubic, the regime classification
of the ratio tau/beta against the critical value 1/9, the decay exponents of
the decay theorems and the exponential rate `exp_rate`.  That rate is
min(1/beta, (beta-tau)/(2 beta tau)), the k -> inf limit of -Re lambda, not a
rate certified on every k >= nu1: the slowest root there decays more slowly.

The three records (`ModelParams`, `CardanoThresholds`, `TheoremRates`) are
immutable named tuples: fields by keyword or by position, hashable, and a
record also equals the plain tuple of its values.
"""

from __future__ import annotations

import math
import operator
from enum import Enum
from typing import NamedTuple

from .errors import InvalidInput, NonDissipative, NonFinite

#: Relative tolerance on tau/beta for classifying the critical ratio 1/9.
TOL_CRITICAL = 1e-12

#: Critical value of tau/beta at which the two Cardano thresholds merge.
CRITICAL_RATIO = 1.0 / 9.0

#: The validated range PARAM_MIN <= tau < beta <= PARAM_MAX, tau/beta >= RATIO_MIN.
#: Beyond it the root kernel's tau^-6 and tau beta^3 k^4 (up to MAX_STIFFNESS) or
#: c2's r^4 overflow, tau (beta - tau) of the Lyapunov weights underflows, or the
#: kernel's real root rounds to zero against -1/tau (from beta/tau ~ 1e23 on).
PARAM_MIN = 1e-25
PARAM_MAX = 1e25
RATIO_MIN = 1e-20


class ModelParams(NamedTuple):
    """Validated model parameters, dissipative case 0 < tau < beta.

    The spectrum kernel also takes a row record, tau and beta equal-shape
    arrays, built only from draws that each passed validate.
    """

    tau: float
    beta: float

    @property
    def ratio(self) -> float:
        return self.tau / self.beta


class CardanoThresholds(NamedTuple):
    """Zeroes of the discriminant of the characteristic cubic.

    m1 and m2 are squared frequency magnitudes: for tau/beta < 1/9 the cubic
    has three real roots exactly when m1 <= k^2 <= m2 and a conjugate pair
    otherwise.  They are absent (None) when c2 < 0, i.e. for tau/beta > 1/9.
    """

    c1: float
    c2: float
    m1: float | None
    m2: float | None


class Regime(Enum):
    """Eigenvalue-pattern regime of the ratio tau/beta."""

    SUB_CRITICAL = "SubCritical"      # tau/beta < 1/9
    CRITICAL = "Critical"             # tau/beta = 1/9 (within TOL_CRITICAL)
    SUPER_CRITICAL = "SuperCritical"  # 1/9 < tau/beta < 1


class DataClass(Enum):
    """Hypothesis class of the initial data in the decay theorems."""

    L1 = "L1"
    L1_WEIGHTED = "L1Weighted"


class TheoremRates(NamedTuple):
    """Decay rates for one (dim, j, data class): the theorems' polynomial exponent,
    and exp_rate, the k -> inf limit of -Re lambda (high_frequency_rate)."""

    poly_exponent: float
    exp_rate: float


def validate(tau: float, beta: float) -> ModelParams:
    """Validate (tau, beta) and return an immutable parameter record.

    Raises NonFinite on NaN/infinite input, NonDissipative unless
    0 < tau < beta, and InvalidInput outside the range PARAM_MIN <= tau,
    beta <= PARAM_MAX, tau/beta >= RATIO_MIN.
    """
    tau = float(tau)
    beta = float(beta)
    if not (math.isfinite(tau) and math.isfinite(beta)):
        raise NonFinite(f"parameters must be finite, got tau={tau}, beta={beta}")
    if not (0.0 < tau < beta):
        raise NonDissipative(
            f"dissipativeness requires 0 < tau < beta, got tau={tau}, beta={beta}"
        )
    if not (PARAM_MIN <= tau and beta <= PARAM_MAX and tau >= RATIO_MIN * beta):
        raise InvalidInput(f"parameters must lie in [{PARAM_MIN:.0e}, {PARAM_MAX:.0e}] with "
                           f"tau/beta >= {RATIO_MIN:.0e}, got tau={tau}, beta={beta}")
    return ModelParams(tau=tau, beta=beta)


def _critical(s):
    """The critical window: s = tau/beta within TOL_CRITICAL of 1/9, relative, elementwise."""
    return abs(s - CRITICAL_RATIO) <= TOL_CRITICAL * CRITICAL_RATIO


def _triple_numerator(s):
    """1 + s (18 - 27 s), elementwise: over 8 beta tau, the triple point (mean of m1, m2)."""
    return 1.0 + s * (18.0 - 27.0 * s)


def cardano_thresholds(p: ModelParams) -> CardanoThresholds:
    """Compute the discriminant coefficients c1, c2 and thresholds m1 <= m2.

    c2 is evaluated in the factored form (r - 9)^3 (r - 1) with r = beta/tau,
    which is algebraically identical to c1^2 - 64 r^3 but does not lose the
    sign of the tiny residual near the critical ratio; its sign decides
    whether the thresholds exist.  They are the roots of the discriminant's
    quadratic in k^2: with s = tau/beta and N = 1 + 18 s - 27 s^2 +
    (1 - 9 s) sqrt((1 - 9 s)(1 - s)), m2 = N/(8 beta tau), and m1 =
    8/(beta^2 N) from their product 1/(tau beta^3), a form in which nothing
    cancels as tau/beta -> 0 (tau (-c1 - sqrt(c2)) / (8 beta^3) does).
    """
    r = p.beta / p.tau
    c1 = 27.0 - 18.0 * r - r * r
    c2 = (r - 9.0) ** 3 * (r - 1.0)
    if c2 < 0.0:
        return CardanoThresholds(c1=c1, c2=c2, m1=None, m2=None)
    s = p.tau / p.beta
    d = max(1.0 - 9.0 * s, 0.0)  # c2 >= 0 puts s at or below 1/9 up to rounding
    n = _triple_numerator(s) + d * math.sqrt(d * (1.0 - s))
    return CardanoThresholds(c1=c1, c2=c2, m1=8.0 / (p.beta * p.beta * n),
                             m2=n / (8.0 * p.beta * p.tau))


def regime(p: ModelParams) -> Regime:
    """Classify tau/beta against the critical ratio 1/9."""
    if _critical(p.ratio):
        return Regime.CRITICAL
    return Regime.SUB_CRITICAL if p.ratio < CRITICAL_RATIO else Regime.SUPER_CRITICAL


def high_frequency_rate(p: ModelParams) -> float:
    """Exponential rate min{1/beta, (beta-tau)/(2*beta*tau)} of the high modes."""
    return min(1.0 / p.beta, (p.beta - p.tau) / (2.0 * p.beta * p.tau))


def _check_orders(dim: int, j: int) -> None:
    """The orders rule: InvalidInput unless dim is an integer >= 1 and j one >= 0, not a bool."""
    for value, name, least in ((dim, "dimension", 1), (j, "derivative order", 0)):
        integer = hasattr(value, "__index__") and not isinstance(value, bool)
        if not (integer and operator.index(value) >= least):
            raise InvalidInput(f"{name} must be an integer >= {least}, got {value}")


def applicable_exponents(dim: int, j: int, data_class: DataClass) -> list[float]:
    """All polynomial decay exponents applicable to (dim, j, data class).

    Exponents are powers of (1 + t) bounding the Sobolev norm of order j, so
    smaller is stronger.  For plain integrable data the generic bound
    1 - dim/4 - j/2 always applies and improves to -(dim-2)/4 - j/2 once
    dim + j >= 3.  For weighted zero-mean data the bound is -dim/4 - j/2.
    Raises InvalidInput unless dim is an integer >= 1 and j an integer >= 0.
    """
    _check_orders(dim, j)
    if data_class is DataClass.L1_WEIGHTED:
        return [-dim / 4.0 - j / 2.0]
    exps = [1.0 - dim / 4.0 - j / 2.0]
    if dim + j >= 3:
        exps.append(-(dim - 2) / 4.0 - j / 2.0)
    return exps


def theorem_rates(p: ModelParams, dim: int, j: int, data_class: DataClass) -> TheoremRates:
    """Best applicable decay bound: smallest polynomial exponent, and as exp_rate
    min(1/beta, (beta-tau)/(2 beta tau)), the k -> inf limit of -Re lambda.  It
    is not certified for the whole non-low-frequency remainder, whose slowest
    root decays more slowly (at (0.965, 1): 0.00356 against 0.01813)."""
    exps = applicable_exponents(dim, j, data_class)
    return TheoremRates(poly_exponent=min(exps), exp_rate=high_frequency_rate(p))
