"""Spectral analysis and decay theory of the linear Moore-Gibson-Thompson
equation tau*u_ttt + u_tt - lap(u) - beta*lap(u_t) = 0 on R^N.

The package computes exact per-frequency-mode solutions from the eigenvalues
of the mode matrix, classifies the eigenvalue regimes separated by the
Cardano thresholds, verifies the energy and Lyapunov dissipation structure
numerically, and measures Sobolev-norm decay rates of radial data against
the known theorem bounds.
"""

__version__ = "0.1.0"

from .errors import (MGTError, NonDissipative, NonFinite, InvalidFrequency, GridError,
                     IllConditioned, StepFailure, QuadratureFailure, DegenerateFit,
                     ToleranceFailure, NonPositiveMargin, EmptyInput)
from .params import (ModelParams, CardanoThresholds, Regime, DataClass, TheoremRates,
                     validate, cardano_thresholds, regime, theorem_rates,
                     applicable_exponents, high_frequency_rate)
from .spectrum import (RootPattern, Labeling, SpectrumPoint, AsymptoticTriple,
                       eigenvalues, classify, asymptotic_small_k, asymptotic_large_k,
                       atlas, atlas_rows, characteristic_residual)
from .mode_solver import (ModeState, ModeCoefficients, VVector, mode_coefficients,
                          solve_mode, propagate_numeric, v_vector, evaluate_mode,
                          solve_modes_on_grid, mode_matrix, ode_residual)
from .lyapunov import (LyapunovWeights, FunctionalValues, default_weights, functionals,
                       energy_dissipation_residual, gronwall_margin, decay_margin_exact,
                       pointwise_bound_constants, rho)
from .decay import (FrequencyProfile, ProfileKind, RegionSplit, RegionContributions,
                    DecayCurve, region_split, region_rates, sobolev_norm_sq, v_norm_sq,
                    region_contributions, decay_curve, decay_curve_rows, bound_verdict,
                    decay_curve_summary, fit_decay_slope, integral_lemma_check,
                    IntegralLemmaReport, infer_data_class)
from .quadrature import adaptive_quadrature, QuadResult

__all__ = [name for name in dir() if not name.startswith("_")]
