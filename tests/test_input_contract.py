"""The input contract: each input rule is one function with one error type and
one message, and every public function that takes the input applies it.

One table per rule maps each public function that takes the input to a call
of it on the bad value; every row must raise the rule's type with the rule's
message, before any arithmetic.  The completeness check walks
mgt_spectral.__all__, so a public function with such a parameter and no row
fails it.  Records (the classes) are outside the check: ModelParams is valid
only from validate, and FrequencyProfile, which checks its own fields, has
the profile table.
"""

import inspect
import math
import re
import warnings

import numpy as np
import pytest

import mgt_spectral
from mgt_spectral import decay, lyapunov, mode_solver
from mgt_spectral import (DataClass, EmptyInput, FrequencyProfile, GridError, InvalidFrequency,
                          InvalidInput, MGTError, ModeState, adaptive_quadrature,
                          applicable_exponents, asymptotic_large_k, asymptotic_small_k, atlas,
                          characteristic_residual, decay_curve, default_weights, eigenvalues,
                          energy_dissipation_residual, gronwall_margin, integral_lemma_check,
                          mode_coefficients, mode_matrix, propagate_numeric,
                          region_contributions, rho, sobolev_norm_sq, solve_mode,
                          solve_modes_on_grid, theorem_rates, v_norm_sq, validate)

P = validate(0.1, 1.0)
DATA = (FrequencyProfile.zero(), FrequencyProfile.zero(), FrequencyProfile.gaussian())
UNIT = ModeState(1.0, 0.0, 0.0, 1.0)


def _state(k):
    return ModeState(1.0, 0.0, 0.0, k)


# ---------------------------------------------------------------------------
# the tables: public function -> its call on the bad input
# ---------------------------------------------------------------------------

#: the time rule, mode_solver._times: a finite number >= 0, or InvalidInput
TIME = {
    "solve_mode": lambda t: solve_mode(P, UNIT, t),
    "solve_modes_on_grid": lambda t: solve_modes_on_grid(P, np.array([0.5, 1.0]),
                                                         1.0, 0.0, 0.0, t),
    "propagate_numeric": lambda t: propagate_numeric(P, UNIT, t),
    "energy_dissipation_residual": lambda t: energy_dissipation_residual(P, UNIT, t),
    "gronwall_margin": lambda t: gronwall_margin(P, default_weights(P), [1.0], [UNIT],
                                                 t_grid=t),
    "sobolev_norm_sq": lambda t: sobolev_norm_sq(P, DATA, 3, 0, t, 1e-6),
    "v_norm_sq": lambda t: v_norm_sq(P, DATA, 3, 0, t, 1e-6),
    "region_contributions": lambda t: region_contributions(P, DATA, 3, 0, t, 1e-6),
}

#: the functions of TIME that take one time (mode_solver._time): an array is not a number
ONE_TIME = ("solve_modes_on_grid", "sobolev_norm_sq", "v_norm_sq", "region_contributions")

#: the time-grid rule, mode_solver._time_grid: each entry by the time rule,
#: one-dimensional, nonempty, strictly ascending
TIME_GRID = {
    "decay_curve": lambda grid: decay_curve(P, DATA, 3, 0, grid, 1e-6),
    "integral_lemma_check": lambda grid: integral_lemma_check(3, 0, 1.0, grid),
}

#: the frequency rule, spectrum._frequencies: a finite number >= 0, or InvalidFrequency
FREQUENCY = {
    "solve_mode": lambda k: solve_mode(P, _state(k), 1.0),
    "propagate_numeric": lambda k: propagate_numeric(P, _state(k), 1.0),
    "mode_coefficients": lambda k: mode_coefficients(P, _state(k)),
    "energy_dissipation_residual": lambda k: energy_dissipation_residual(P, _state(k), 1.0),
    "solve_modes_on_grid": lambda k: solve_modes_on_grid(P, np.array([0.5, k]),
                                                         1.0, 0.0, 0.0, 1.0),
    "eigenvalues": lambda k: eigenvalues(P, k),
    "asymptotic_small_k": lambda k: asymptotic_small_k(P, k),
    "asymptotic_large_k": lambda k: asymptotic_large_k(P, k),
    "atlas": lambda k: atlas(P, [0.0, k]),
    "characteristic_residual": lambda k: characteristic_residual(P, -1.0, k),
    "mode_matrix": lambda k: mode_matrix(P, k),
    "rho": lambda k: rho(k),
    "gronwall_margin": lambda k: gronwall_margin(P, default_weights(P), [1.0, k], [UNIT]),
}

#: the frequency-grid rule, in atlas: each entry by the frequency rule (the FREQUENCY
#: table), one-dimensional, nonempty, ascending
FREQUENCY_GRID = {
    "atlas": lambda grid: atlas(P, grid),
}

#: the shape half of the grid rule (spectrum._grid), for the sweep grids of
#: gronwall_margin, which need no order: (function, grid name) -> its call
GRID_SHAPE = {
    ("gronwall_margin", "frequency"): lambda grid: gronwall_margin(P, default_weights(P), grid,
                                                                   [UNIT]),
    ("gronwall_margin", "time"): lambda grid: gronwall_margin(P, default_weights(P), [1.0],
                                                              [UNIT], t_grid=grid),
}

#: the sample rule, in gronwall_margin: an iterable of ModeState (an iterator too), or
#: InvalidInput
SAMPLES = {
    "gronwall_margin": lambda samples: gronwall_margin(P, default_weights(P), [1.0], samples),
}

#: the tolerance rule, quadrature._tolerance: a finite number > 0, or InvalidInput
TOLERANCE = {
    "adaptive_quadrature": lambda tol: adaptive_quadrature(np.exp, 0.0, 1.0, tol),
    "sobolev_norm_sq": lambda tol: sobolev_norm_sq(P, DATA, 3, 0, 1.0, tol),
    "v_norm_sq": lambda tol: v_norm_sq(P, DATA, 3, 0, 1.0, tol),
    "region_contributions": lambda tol: region_contributions(P, DATA, 3, 0, 1.0, tol),
    "decay_curve": lambda tol: decay_curve(P, DATA, 3, 0, [1.0, 10.0, 100.0], tol),
}

#: the interval rule, in adaptive_quadrature: finite numbers a <= b, not bools, or InvalidInput
INTERVAL = {
    "adaptive_quadrature": lambda a, b: adaptive_quadrature(np.exp, a, b, 1e-9),
}

#: the edge rule, in adaptive_quadrature: numbers other than NaN, or InvalidInput; edges
#: outside [a, b], infinite ones included, are ignored
EDGES = {
    "adaptive_quadrature": lambda edges: adaptive_quadrature(np.exp, 0.0, 1.0, 1e-10,
                                                             initial_edges=edges),
}

#: the orders rule, params._check_orders: dim an integer >= 1 and j one >= 0, or InvalidInput
ORDERS = {
    "applicable_exponents": lambda dim, j: applicable_exponents(dim, j, DataClass.L1),
    "theorem_rates": lambda dim, j: theorem_rates(P, dim, j, DataClass.L1_WEIGHTED),
    "sobolev_norm_sq": lambda dim, j: sobolev_norm_sq(P, DATA, dim, j, 1.0, 1e-6),
    "v_norm_sq": lambda dim, j: v_norm_sq(P, DATA, dim, j, 1.0, 1e-6),
    "region_contributions": lambda dim, j: region_contributions(P, DATA, dim, j, 1.0, 1e-6),
    "decay_curve": lambda dim, j: decay_curve(P, DATA, dim, j, [1.0, 10.0, 100.0], 1e-6),
    "integral_lemma_check": lambda dim, j: integral_lemma_check(dim, j, 1.0, [1.0, 10.0]),
}

#: the oracle-domain rule, in propagate_numeric: a phase k t sqrt(beta/tau) of at
#: most ORACLE_MAX_PHASE, or InvalidInput
ORACLE_DOMAIN = {
    "propagate_numeric": lambda k, t: propagate_numeric(P, _state(k), t),
}

#: the profile rule, FrequencyProfile.__post_init__: an order 0 or 1 (an integer, not a
#: bool), a finite scale > 0 and a finite amplitude, or InvalidInput
PROFILE = {
    "FrequencyProfile": lambda scale, amplitude: FrequencyProfile(0, scale, amplitude),
    "FrequencyProfile.gaussian": FrequencyProfile.gaussian,
    "FrequencyProfile.moment_free": FrequencyProfile.moment_free,
}

#: parameter name -> the table of its rule
RULE_OF = {"t": TIME, "t_grid": TIME, "time_grid": TIME_GRID, "k": FREQUENCY, "ks": FREQUENCY,
           "k_grid": FREQUENCY, "tol": TOLERANCE, "quad_tol": TOLERANCE, "dim": ORDERS,
           "j": ORDERS, "scale": PROFILE, "amplitude": PROFILE, "a": INTERVAL, "b": INTERVAL,
           "init_samples": SAMPLES, "initial_edges": EDGES}


def _raises(error, message):
    """pytest.raises of exactly `error` with exactly `message`."""
    return pytest.raises(error, match=f"^{re.escape(message)}$")


@pytest.fixture
def norm_work(monkeypatch):
    """Spies on the first work of the norm path, the weights and the quadrature: the
    names of those that ran, each of which then raises.  A rule raises before either."""
    ran = []

    def spy(name):
        def call(*args, **kwargs):
            ran.append(name)
            raise AssertionError(f"{name} ran before the input rule")
        return call

    monkeypatch.setattr(lyapunov, "default_weights", spy("lyapunov.default_weights"))
    monkeypatch.setattr(decay, "adaptive_quadrature", spy("decay.adaptive_quadrature"))
    return ran


# ---------------------------------------------------------------------------
# one test per table
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", TIME)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, -1e-300])
@pytest.mark.parametrize("in_array", [False, True])
def test_time_rule(name, bad, in_array, norm_work):
    """Never a NaN or a backward-in-time state, nor a certified norm at t < 0."""
    with _raises(InvalidInput, f"time must be finite and >= 0, got {bad}"):
        TIME[name](np.array([0.0, bad]) if in_array else bad)
    assert norm_work == []


@pytest.mark.parametrize("name, bad", [(name, bad) for name in TIME for bad in (None, "soon")
                                       # None asks gronwall_margin for its default grid
                                       if (name, bad) != ("gronwall_margin", None)]
                         + [(name, np.array([1.0, 2.0])) for name in ONE_TIME]
                         + [(name, [1.0]) for name in ONE_TIME])
def test_time_rule_names_a_non_number(name, bad):
    with _raises(InvalidInput, f"time must be a number, got {bad!r}"):
        TIME[name](bad)


@pytest.mark.parametrize("name", TIME_GRID)
@pytest.mark.parametrize("grid, error, message", [
    ([], EmptyInput, "empty time grid"),
    ([2.0, 1.0], GridError, "time grid must be strictly ascending"),
    ([0.0, 1.0, 1.0], GridError, "time grid must be strictly ascending"),
    ([0.0, -1.0, 10.0], InvalidInput, "time must be finite and >= 0, got -1.0"),
    ([0.0, math.nan, 10.0], InvalidInput, "time must be finite and >= 0, got nan"),
    (np.array([0.0, math.inf]), InvalidInput, "time must be finite and >= 0, got inf"),
    ([0.0, -math.inf], InvalidInput, "time must be finite and >= 0, got -inf"),
    ([[0.0, 1.0], [2.0, 3.0]], GridError, "time grid must be one-dimensional, got shape (2, 2)"),
    (10.0, GridError, "time grid must be one-dimensional, got shape ()"),
])
def test_time_grid_rule(name, grid, error, message):
    with _raises(error, message):
        TIME_GRID[name](grid)


@pytest.mark.parametrize("name", FREQUENCY_GRID)
@pytest.mark.parametrize("grid, error, message", [
    ([], EmptyInput, "empty frequency grid"),
    ([1.0, 0.5], GridError, "frequency grid must be ascending"),
    ([[0.0, 1.0]], GridError, "frequency grid must be one-dimensional, got shape (1, 2)"),
    (1.0, GridError, "frequency grid must be one-dimensional, got shape ()"),
])
def test_frequency_grid_rule(name, grid, error, message):
    with _raises(error, message):
        FREQUENCY_GRID[name](grid)


@pytest.mark.parametrize("name, grid_name, grid", [
    (*key, grid) for key in GRID_SHAPE
    for grid in ([[0.5, 1.0]], [[0.5, 1.0], [2.0, 3.0]], np.ones((1, 1, 2)))]
    + [("gronwall_margin", "time", 10.0), ("gronwall_margin", "frequency", 10.0)])
def test_grid_shape_rule(name, grid_name, grid):
    # not a flattened sweep (nor a 0-d grid, nor a bare TypeError on a number): the grid
    # rule's shape half, without its order
    shape = np.shape(grid)
    with _raises(GridError, f"{grid_name} grid must be one-dimensional, got shape {shape}"):
        GRID_SHAPE[name, grid_name](grid)


@pytest.mark.parametrize("name, grid_name", GRID_SHAPE)
def test_grid_shape_rule_keeps_the_empty_sweep_message(name, grid_name):
    with _raises(EmptyInput, "gronwall margin sweep needs frequencies, samples and times"):
        GRID_SHAPE[name, grid_name]([])


@pytest.mark.parametrize("read, error, what", [
    (FREQUENCY_GRID["atlas"], InvalidFrequency, "frequency magnitude"),
    (TIME_GRID["decay_curve"], InvalidInput, "time"),
    (TIME_GRID["integral_lemma_check"], InvalidInput, "time"),
    (GRID_SHAPE["gronwall_margin", "frequency"], InvalidFrequency, "frequency magnitude"),
    (GRID_SHAPE["gronwall_margin", "time"], InvalidInput, "time"),
], ids=["atlas", "decay_curve", "integral_lemma_check", "gronwall_margin-frequency",
        "gronwall_margin-time"])
def test_no_grid_reads_an_iterator(read, error, what):
    # one rule for every grid: an iterator is not a number, by the entry rule
    grid = iter([0.5, 1.0, 2.0])
    with _raises(error, f"{what} must be a number, got {grid!r}"):
        read(grid)


@pytest.mark.parametrize("name", SAMPLES)
@pytest.mark.parametrize("bad", [UNIT, 1.0, None, [UNIT, 1.0], "u"])
def test_sample_rule(name, bad):
    # a lone ModeState is not a sweep, nor is a number: no bare TypeError
    with _raises(InvalidInput, f"sweep samples must be an iterable of ModeState, got {bad!r}"):
        SAMPLES[name](bad)


@pytest.mark.parametrize("name", SAMPLES)
def test_sample_rule_reads_an_iterator(name):
    assert SAMPLES[name](iter([UNIT, _state(2.0)])) == SAMPLES[name]((UNIT, _state(2.0)))


@pytest.mark.parametrize("name", FREQUENCY)
@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
def test_frequency_rule(name, bad):
    """Never the mode at |k| or a stiffness error."""
    with _raises(InvalidFrequency, f"frequency magnitude must be finite and >= 0, got {bad}"):
        FREQUENCY[name](bad)


@pytest.mark.parametrize("name", FREQUENCY)
def test_frequency_rule_names_a_non_number(name):
    # None is not read as NaN: the message names what the caller passed
    with pytest.raises(InvalidFrequency, match="^frequency magnitude must be a number, got .*None"):
        FREQUENCY[name](None)


def test_numeric_strings_are_numbers():
    assert eigenvalues(P, "1.5") == eigenvalues(P, 1.5)
    assert [pt.k for pt in atlas(P, ["0", "1.5"])] == [0.0, 1.5]
    assert sobolev_norm_sq(P, DATA, 3, 0, "1.5", 1e-6) == sobolev_norm_sq(P, DATA, 3, 0, 1.5, 1e-6)


@pytest.mark.parametrize("name", TOLERANCE)
@pytest.mark.parametrize("bad", [0.0, -1e-9, math.nan, math.inf, None, "1e-9", True, False])
def test_tolerance_rule(name, bad, norm_work):
    # an infinite tolerance would certify a cut near k = 0 and return a norm near 0;
    # True is a numbers.Real but not a tolerance of 1.0
    with _raises(InvalidInput, f"tolerance must be a finite number > 0, got {bad!r}"):
        TOLERANCE[name](bad)
    assert norm_work == []


@pytest.mark.parametrize("name", INTERVAL)
@pytest.mark.parametrize("a, b", [(1.0, 0.0), (math.inf, math.inf), (0.0, math.inf),
                                  (-math.inf, 0.0), (math.nan, 1.0), (0.0, math.nan),
                                  (None, 1.0), ("0", 1.0), (0.0, None), (False, 1.0)])
def test_interval_rule(name, a, b):
    # not a zero integral over [inf, inf], nor a QuadratureFailure on [nan, inf], nor
    # a bare TypeError from comparing None or a string with a float
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with _raises(InvalidInput, f"bad interval [{a!r}, {b!r}]"):
            INTERVAL[name](a, b)


@pytest.mark.parametrize("name", EDGES)
@pytest.mark.parametrize("bad", [[math.nan], [0.5, math.nan], ["a"], [[0.2, 0.4], [0.6]],
                                 [None], object()])
def test_edge_rule(name, bad):
    # not a NaN edge dropped without a word, nor numpy's bare ValueError
    with _raises(InvalidInput, f"initial edges must be numbers other than NaN, got {bad!r}"):
        EDGES[name](bad)


@pytest.mark.parametrize("name", EDGES)
def test_edge_rule_ignores_edges_outside_the_interval(name):
    plain = adaptive_quadrature(np.exp, 0.0, 1.0, 1e-10)
    assert EDGES[name]([-math.inf, -1.0, 2.0, math.inf]) == plain
    assert EDGES[name]([[0.5], [0.5]]) == EDGES[name]([0.5])


@pytest.mark.parametrize("name", ORDERS)
@pytest.mark.parametrize("dim, j, message", [
    (0, 0, "dimension must be an integer >= 1, got 0"),
    (1.5, 0, "dimension must be an integer >= 1, got 1.5"),
    (3.0, 0, "dimension must be an integer >= 1, got 3.0"),
    (True, 0, "dimension must be an integer >= 1, got True"),
    (np.bool_(True), 0, "dimension must be an integer >= 1, got True"),
    (1, -1, "derivative order must be an integer >= 0, got -1"),
    (3, 1.5, "derivative order must be an integer >= 0, got 1.5"),
    (3, False, "derivative order must be an integer >= 0, got False"),
])
def test_orders_rule(name, dim, j, message, norm_work):
    with _raises(InvalidInput, message):
        ORDERS[name](dim, j)
    assert norm_work == []


@pytest.mark.parametrize("name", ORACLE_DOMAIN)
@pytest.mark.parametrize("k, t", [(1e16, 1.0), (1e30, 1.0), (1.0, 1e7), (1e6, [0.0, 1.0])])
def test_oracle_domain_rule(name, k, t):
    # not a 0.9-relative error at k = 1e16, nor NaN for k in [1e22, 1e50]
    phase = k * np.max(t) * math.sqrt(P.beta / P.tau)
    with _raises(InvalidInput, f"the oracle needs k t sqrt(beta/tau) <= 1e+06, got {phase:.3e}"):
        ORACLE_DOMAIN[name](k, t)
    # the domain's edge is inside it
    edge = ORACLE_DOMAIN[name](mode_solver.ORACLE_MAX_PHASE / math.sqrt(P.beta / P.tau), 1.0)
    assert np.isfinite(edge.as_array()).all()


@pytest.mark.parametrize("name", PROFILE)
@pytest.mark.parametrize("scale, amplitude, message", [
    (0.0, 1.0, "profile scale must be finite and > 0, got 0.0"),
    (-1.0, 1.0, "profile scale must be finite and > 0, got -1.0"),
    (math.nan, 1.0, "profile scale must be finite and > 0, got nan"),
    (math.inf, 1.0, "profile scale must be finite and > 0, got inf"),
    (1.0, math.nan, "profile amplitude must be finite, got nan"),
    (1.0, -math.inf, "profile amplitude must be finite, got -inf"),
])
def test_profile_rule(name, scale, amplitude, message):
    with _raises(InvalidInput, message):
        PROFILE[name](scale, amplitude)


@pytest.mark.parametrize("order", ["Gaussian", None, 2, -1, True, 1.0])
def test_profile_rule_order(order):
    with _raises(InvalidInput, f"profile order must be 0 or 1, got {order!r}"):
        FrequencyProfile(order, 1.0, 1.0)


@pytest.mark.parametrize("order", [np.int64(0), np.int8(1)])
def test_profile_rule_order_accepts_a_numpy_integer(order):
    assert FrequencyProfile(order, 1.0, 1.0) == FrequencyProfile(int(order), 1.0, 1.0)


# ---------------------------------------------------------------------------
# completeness and the error hierarchy
# ---------------------------------------------------------------------------

def _ruled_parameters():
    """(function name, parameter) of each public function's parameter that a rule governs."""
    for name in mgt_spectral.__all__:
        obj = getattr(mgt_spectral, name)
        if inspect.isfunction(obj):
            for param in inspect.signature(obj).parameters:
                if param in RULE_OF:
                    yield name, param


def test_every_public_function_with_a_ruled_input_has_a_row():
    pairs = list(_ruled_parameters())
    assert len(pairs) >= 40
    missing = [(name, param) for name, param in pairs if name not in RULE_OF[param]]
    assert not missing, missing


def test_bad_input_errors_are_value_errors():
    # so an `except ValueError` caller catches every bad input, typed or not
    for error in (InvalidInput, EmptyInput, GridError, InvalidFrequency,
                  mgt_spectral.NonDissipative, mgt_spectral.NonFinite):
        assert issubclass(error, InvalidInput) and issubclass(error, ValueError)
        assert issubclass(error, MGTError)
