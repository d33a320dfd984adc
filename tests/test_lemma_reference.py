"""The oscillating integral-lemma kernels checked against an independent reference.

The reference integrates r^(dim+j-1) e^(-c r^2 t) times cos^2(t r) on [0, 1]
and times (sin(t r)/r)^2 on [0, 1] and [0, inf) with scipy.integrate.quad,
one call per half period of sin(t r) so that no piece oscillates, cut where
the Gaussian factor e^(-c r^2 t) is below e^-80.  It shares no code with the
package's split pass, its capped policy or its certified cut, so agreement to
each kernel's own error target checks the value integral_lemma_check divides
by its bound shape.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

from mgt_spectral import decay, integral_lemma_check
from mgt_spectral.decay import _lemma_quadratures

#: the five (dim, j) pairs of `mgt verify` at c = 1, then three small-c triples
#: whose plain ratio is still rising at the end of verify's grid
TRIPLES = [(1, 0, 1.0), (2, 0, 1.0), (3, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0),
           (4, 1, 0.3), (2, 0, 0.1), (3, 0, 0.1)]
TIMES = (0.0, 1e-2, 1.0, 1e2, 1e4)
#: the time grid of `mgt verify`
VERIFY_GRID = np.concatenate([[0.0], np.geomspace(1e-2, 1e4, 12)])


def _half_periods(f, hi, t):
    edges = np.linspace(0.0, hi, min(2000, max(1, math.ceil(hi * t / math.pi))) + 1)
    return sum(integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-12, limit=200)[0]
               for a, b in zip(edges[:-1], edges[1:]))


def _reference(dim, j, c, t):
    """name -> reference integral of each oscillating kernel at time t."""
    pw = dim + j - 1
    cut = math.sqrt(80.0 / (c * t)) if t > 0.0 else math.inf

    def weight(r):
        return r**pw * math.exp(-c * r * r * t)

    def cosine(r):
        return weight(r) * math.cos(t * r) ** 2

    def sine(r):
        return weight(r) * (math.sin(t * r) / r if r > 0.0 else t) ** 2

    ref = {"cosine": _half_periods(cosine, min(1.0, cut), t),
           "sine_low": _half_periods(sine, min(1.0, cut), t)}
    if dim + j >= 3 and t > 0.0:
        ref["sine_global"] = _half_periods(sine, cut, t)
    return ref


def _agrees(value, reference, tol):
    return abs(value - reference) <= tol


@pytest.mark.parametrize("t", TIMES)
@pytest.mark.parametrize("dim, j, c", TRIPLES)
def test_oscillating_kernels_match_the_reference(dim, j, c, t):
    quads = _lemma_quadratures(dim, j, c, t)
    ref = _reference(dim, j, c, t)
    assert set(ref) == set(quads) - {"plain"}
    for name, value in ref.items():
        quad, tol = quads[name]
        assert quad.error <= tol, name
        assert _agrees(quad.value, value, tol), (name, quad.value - value, tol)
        # negative control: a reference 10 error targets off is caught
        assert not _agrees(quad.value, value + 10.0 * tol, tol), name


def test_error_targets_are_the_lemma_tolerances():
    # 1e-6 (1+t)^-(dim+j)/2 for cosine, (1+t)^2 times that for sine_low and
    # 1e-6 t^-(dim+j-2)/2 for sine_global, each with its floor
    t = 1e2
    quads = _lemma_quadratures(3, 0, 1.0, t)
    tol = 1e-6 * (1.0 + t) ** -1.5
    assert quads["cosine"][1] == quads["plain"][1] == tol
    assert quads["sine_low"][1] == tol * (1.0 + t) ** 2
    assert quads["sine_global"][1] == 1e-6 * t**-0.5
    assert _lemma_quadratures(3, 0, 1.0, 1e12)["cosine"][1] == 1e-15


def _check(monkeypatch, dim, j, c, times, factors=None):
    """integral_lemma_check with the kernels named in factors multiplied by
    factors[name](t), and name -> the values its verdict saw."""
    values, factors = {}, factors or {}

    def scaled(*args):
        quads = _lemma_quadratures(*args)
        for name, (quad, tol) in quads.items():
            if name in factors:
                quad = replace(quad, value=quad.value * factors[name](args[-1]))
                quads[name] = (quad, tol)
            values.setdefault(name, []).append(quad.value)
        return quads

    monkeypatch.setattr(decay, "_lemma_quadratures", scaled)
    return integral_lemma_check(dim, j, c, times), values


@pytest.mark.parametrize("dim, j, c", TRIPLES)
def test_every_value_within_its_closed_form_bound_on_the_verify_grid(monkeypatch, dim, j, c):
    # (4, 1, 0.3), (2, 0, 0.1) and (3, 0, 0.1) failed a tail-slope fit that saw
    # their ratios still rising toward the bound constant
    rep, values = _check(monkeypatch, dim, j, c, VERIFY_GRID)
    assert set(rep.series) == set(values)
    for name, s in rep.series.items():
        assert np.all(np.array(values[name]) <= s.bound + s.quad_tol), name


def _growth(t):
    return (1.0 + t) ** 0.05


@pytest.mark.parametrize("name, dim, j, c, times, factor", [
    ("plain", 1, 0, 1.0, VERIFY_GRID, _growth),
    ("plain", 2, 0, 0.1, VERIFY_GRID, _growth),
    ("cosine", 1, 0, 1.0, VERIFY_GRID, _growth),
    ("cosine", 2, 0, 0.1, VERIFY_GRID, _growth),
    ("sine_global", 3, 0, 1.0, VERIFY_GRID, _growth),
    ("sine_global", 4, 1, 0.3, VERIFY_GRID, _growth),
    # the bound of plain is sharp at t = 0 and as t -> inf
    ("plain", 1, 0, 1.0, VERIFY_GRID, lambda t: 1.001),
    # one time is judged too: a slope fit needed 8 of them and a 100x span
    ("plain", 1, 0, 1.0, [1.0], lambda t: 2.0),
    ("sine_low", 3, 0, 1.0, [1.0], lambda t: math.nan),
])
def test_a_value_above_its_bound_fails(monkeypatch, name, dim, j, c, times, factor):
    rep, _ = _check(monkeypatch, dim, j, c, times, {name: factor})
    assert rep.series[name].check.passed is False
