"""Spectral analysis and decay theory of the linear Moore-Gibson-Thompson
equation tau*u_ttt + u_tt - lap(u) - beta*lap(u_t) = 0 on R^N.

The package computes exact per-frequency-mode solutions from the eigenvalues
of the mode matrix, classifies the eigenvalue regimes separated by the
Cardano thresholds, verifies the energy and Lyapunov dissipation structure
numerically, and measures Sobolev-norm decay rates of radial data against
the known theorem bounds.

Importing the package loads `errors` and `params` only. numpy and the
numerical layers (`spectrum`, `mode_solver`, `lyapunov`, `quadrature`,
`decay`) load on first access to one of their names, and each `mgt` command
loads only the layers it runs: none for `classify` and `--help`, `spectrum`
for `atlas`, and `mode_solver` and `lyapunov` with it for `mode`.
"""

__version__ = "0.1.0"

from .errors import (MGTError, InvalidInput, NonDissipative, NonFinite, InvalidFrequency,
                     GridError, QuadratureFailure, DegenerateFit, NonPositiveMargin, EmptyInput)
from .params import (ModelParams, CardanoThresholds, Regime, DataClass, TheoremRates,
                     validate, cardano_thresholds, regime, theorem_rates,
                     applicable_exponents, high_frequency_rate)

# public name -> the layer module that defines it
_LAYER_OF = {name: layer for layer, names in {
    "spectrum": ("RootPattern", "SpectrumPoint", "AsymptoticTriple", "eigenvalues",
                 "asymptotic_small_k", "asymptotic_large_k", "atlas", "atlas_rows",
                 "characteristic_residual"),
    "mode_solver": ("ModeState", "ModeCoefficients", "VVector", "FrequencyProfile",
                    "mode_coefficients", "solve_mode", "propagate_numeric", "v_vector",
                    "solve_modes_on_grid", "mode_matrix"),
    "lyapunov": ("LyapunovWeights", "FunctionalValues", "default_weights", "functionals",
                 "energy_dissipation_residual", "gronwall_margin", "pointwise_bound_constants",
                 "rho"),
    "decay": ("RegionSplit", "RegionContributions", "DecayCurve", "Check", "region_split",
              "region_rates", "sobolev_norm_sq", "v_norm_sq", "region_contributions",
              "decay_curve", "decay_curve_rows", "bound_verdict", "decay_curve_summary",
              "fit_decay_slope", "integral_lemma_check", "IntegralLemmaReport", "infer_data_class"),
    "quadrature": ("adaptive_quadrature", "QuadResult"),
}.items() for name in (layer, *names)}

__all__ = sorted([name for name in globals() if not name.startswith("_")] + list(_LAYER_OF))


def __getattr__(name: str):
    # looked up on every access and never stored here, so a name always
    # resolves to the layer module's current attribute
    if name not in _LAYER_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    layer = importlib.import_module(f"{__name__}.{_LAYER_OF[name]}")
    return layer if name == _LAYER_OF[name] else getattr(layer, name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
