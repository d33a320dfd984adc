"""Model parameters and every derived constant the rest of the package consumes.

The model is the linear third-order-in-time equation

    tau * u_ttt + u_tt - lap(u) - beta * lap(u_t) = 0      on R^N,

after normalizing the wave speed to one.  Everything here is closed-form
arithmetic on (tau, beta): the Cardano thresholds m1, m2 that separate the
root-pattern windows of the characteristic cubic, the regime classification
of the ratio tau/beta against the critical value 1/9, and the decay exponents
and exponential rates asserted by the decay theorems.

The three records (`ModelParams`, `CardanoThresholds`, `TheoremRates`) are
immutable named tuples: fields by keyword or by position, hashable, and a
record also equals the plain tuple of its values.
"""

from __future__ import annotations

import math
import operator
from enum import Enum
from typing import NamedTuple

from .errors import NonDissipative, NonFinite

#: Relative tolerance on tau/beta for classifying the critical ratio 1/9.
TOL_CRITICAL = 1e-12

#: Critical value of tau/beta at which the two Cardano thresholds merge.
CRITICAL_RATIO = 1.0 / 9.0


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
    """Decay rates promised by the theorems for one (dim, j, data class)."""

    poly_exponent: float
    exp_rate: float


def validate(tau: float, beta: float) -> ModelParams:
    """Validate (tau, beta) and return an immutable parameter record.

    Raises NonFinite on NaN/infinite input and NonDissipative unless
    0 < tau < beta.
    """
    tau = float(tau)
    beta = float(beta)
    if not (math.isfinite(tau) and math.isfinite(beta)):
        raise NonFinite(f"parameters must be finite, got tau={tau}, beta={beta}")
    if not (0.0 < tau < beta):
        raise NonDissipative(
            f"dissipativeness requires 0 < tau < beta, got tau={tau}, beta={beta}"
        )
    return ModelParams(tau=tau, beta=beta)


def cardano_thresholds(p: ModelParams) -> CardanoThresholds:
    """Compute the discriminant coefficients c1, c2 and thresholds m1 <= m2.

    c2 is evaluated in the factored form (r - 9)^3 (r - 1) with r = beta/tau,
    which is algebraically identical to c1^2 - 64 r^3 but does not lose the
    sign of the tiny residual near the critical ratio.
    """
    r = p.beta / p.tau
    c1 = 27.0 - 18.0 * r - r * r
    c2 = (r - 9.0) ** 3 * (r - 1.0)
    if c2 < 0.0:
        return CardanoThresholds(c1=c1, c2=c2, m1=None, m2=None)
    sq = math.sqrt(c2)
    denom = 8.0 * p.beta**3
    m1 = p.tau * (-c1 - sq) / denom
    m2 = p.tau * (-c1 + sq) / denom
    return CardanoThresholds(c1=c1, c2=c2, m1=m1, m2=m2)


def regime(p: ModelParams) -> Regime:
    """Classify tau/beta against the critical ratio 1/9."""
    ratio = p.ratio
    if abs(ratio - CRITICAL_RATIO) <= TOL_CRITICAL * CRITICAL_RATIO:
        return Regime.CRITICAL
    if ratio < CRITICAL_RATIO:
        return Regime.SUB_CRITICAL
    return Regime.SUPER_CRITICAL


def high_frequency_rate(p: ModelParams) -> float:
    """Exponential rate min{1/beta, (beta-tau)/(2*beta*tau)} of the high modes."""
    return min(1.0 / p.beta, (p.beta - p.tau) / (2.0 * p.beta * p.tau))


def _check_orders(dim: int, j: int) -> None:
    """ValueError unless dim is an integer >= 1 and j one >= 0; a bool is not an integer."""
    for value, name, least in ((dim, "dimension", 1), (j, "derivative order", 0)):
        integer = hasattr(value, "__index__") and not isinstance(value, bool)
        if not (integer and operator.index(value) >= least):
            raise ValueError(f"{name} must be an integer >= {least}, got {value}")


def applicable_exponents(dim: int, j: int, data_class: DataClass) -> list[float]:
    """All polynomial decay exponents applicable to (dim, j, data class).

    Exponents are powers of (1 + t) bounding the Sobolev norm of order j, so
    smaller is stronger.  For plain integrable data the generic bound
    1 - dim/4 - j/2 always applies and improves to -(dim-2)/4 - j/2 once
    dim + j >= 3.  For weighted zero-mean data the bound is -dim/4 - j/2.
    Raises ValueError unless dim is an integer >= 1 and j an integer >= 0.
    """
    _check_orders(dim, j)
    if data_class is DataClass.L1_WEIGHTED:
        return [-dim / 4.0 - j / 2.0]
    exps = [1.0 - dim / 4.0 - j / 2.0]
    if dim + j >= 3:
        exps.append(-(dim - 2) / 4.0 - j / 2.0)
    return exps


def theorem_rates(p: ModelParams, dim: int, j: int, data_class: DataClass) -> TheoremRates:
    """Best applicable decay bound: smallest polynomial exponent plus the
    exponential rate of the non-low-frequency remainder."""
    exps = applicable_exponents(dim, j, data_class)
    return TheoremRates(poly_exponent=min(exps), exp_rate=high_frequency_rate(p))
