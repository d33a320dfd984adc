"""The norms `mgt decay` prints, checked against an independent reference.

The reference propagates each mode by the matrix exponential of its 3x3
system matrix (scipy.linalg.expm, built here from the ODE) and integrates
with composite 20-point Gauss-Legendre on panels half a period of the phase
k sqrt(beta/tau) t wide, cut where the data's Gaussian factor is below
e^-40.  It shares no code with the closed-form kernel, the adaptive
quadrature or the certified truncation, so an agreement to quad_tol checks
the package's own claim about every norm it returns.
"""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from mgt_spectral import FrequencyProfile, sobolev_norm_sq, v_norm_sq, validate

QUAD_TOL = 1e-10

#: one point in each benchmark band: sub-critical, near the critical ratio 1/9,
#: super-critical and near-conservative
BANDS = {
    "sub": (0.05, 1.0),
    "near_critical": ((1.0 + 1e-9) / 9.0 * 1.1, 1.1),
    "super": (0.3, 1.0),
    "near_conservative": (0.88 * 1.2, 1.2),
}
TIMES = (0.0, 1.0, 10.0, 100.0)

G, MF, Z = (FrequencyProfile.gaussian(), FrequencyProfile.moment_free(),
            FrequencyProfile.zero())
#: data triples: the first four are in the L1 class, the last in the weighted class
DATA = {"u2": (Z, Z, G), "u1": (Z, G, Z), "u0": (G, Z, Z), "all": (G, G, G),
        "weighted": (G, MF, MF)}

#: (dim, j, data, v_norm) cases, thinned from the full product so that every
#: band and time meets three of them and every value of every factor occurs
CASES = [
    (3, 0, "u2", False), (1, 0, "u2", False), (2, 1, "weighted", True),
    (2, 0, "u0", False), (1, 1, "all", True), (3, 1, "weighted", False),
    (2, 0, "u2", False), (3, 0, "all", True), (1, 0, "weighted", False),
    (1, 0, "u1", False), (2, 1, "u0", True), (3, 1, "u2", False),
]


def _profile(kind, k):
    gauss = np.exp(-0.5 * k * k)
    return {"g": gauss, "mf": k * gauss, "0": np.zeros_like(k)}[kind]


def _kinds(name):
    return tuple("0" if prof.amplitude == 0.0 else
                 ("mf" if prof.vanishes_at_zero else "g") for prof in DATA[name])


def _reference_states(tau, beta, t):
    """Nodes, weights and exp(t Phi(k)) at every node of the reference rule."""
    k_cut = math.sqrt(80.0)  # exp(-k^2 / 2) < e^-40 beyond it
    width = 0.5 if t == 0.0 else min(0.5, math.pi / (t * math.sqrt(beta / tau)))
    n_panels = math.ceil(k_cut / width)
    edges = np.linspace(0.0, k_cut, n_panels + 1)
    x, w = np.polynomial.legendre.leggauss(20)
    half = 0.5 * np.diff(edges)[:, None]
    ks = (0.5 * (edges[1:] + edges[:-1])[:, None] + half * x).ravel()
    weights = (half * w).ravel()
    phi = np.zeros((ks.size, 3, 3))
    phi[:, 0, 1] = phi[:, 1, 2] = 1.0
    phi[:, 2, 0] = -ks * ks / tau
    phi[:, 2, 1] = -beta * ks * ks / tau
    phi[:, 2, 2] = -1.0 / tau
    return ks, weights, expm(t * phi)


def _reference_norm(states, data, dim, j, tau, v_norm):
    ks, weights, prop = states
    y0 = np.stack([_profile(kind, ks) for kind in _kinds(data)], axis=1)
    u, v, w = np.einsum("nij,nj->in", prop, y0)
    if v_norm:
        val = (v + tau * w) ** 2 + ks * ks * ((u + tau * v) ** 2 + v * v)
    else:
        val = u * u
    return math.fsum((weights * ks ** (2 * j + dim - 1) * val).tolist())


def _package_norm(p, data, dim, j, t, v_norm):
    norm = v_norm_sq if v_norm else sobolev_norm_sq
    return norm(p, DATA[data], dim, j, t, QUAD_TOL)


def _points():
    for b, band in enumerate(BANDS):
        for i, t in enumerate(TIMES):
            start = 3 * ((b + i) % 4)
            yield band, t, CASES[start:start + 3]


@pytest.mark.parametrize("band,t,cases", list(_points()),
                         ids=[f"{band}-t{t:g}" for band, t, _ in _points()])
def test_norms_match_the_expm_reference(band, t, cases):
    tau, beta = BANDS[band]
    p = validate(tau, beta)
    states = _reference_states(tau, beta, t)
    for dim, j, data, v_norm in cases:
        ref = _reference_norm(states, data, dim, j, tau, v_norm)
        got = _package_norm(p, data, dim, j, t, v_norm)
        assert abs(got - ref) <= QUAD_TOL, (dim, j, data, v_norm, got, ref)


def test_every_factor_value_is_covered():
    seen = [case for _, _, cases in _points() for case in cases]
    assert {c[0] for c in seen} == {1, 2, 3}
    assert {c[1] for c in seen} == {0, 1}
    assert {c[3] for c in seen} == {False, True}
    assert {"weighted", "u2"} <= {c[2] for c in seen}
    assert len({(band, t) for band, t, _ in _points()}) == len(BANDS) * len(TIMES)


class TestNegativeControls:
    """The comparison detects a norm 2 quad_tol off and a kernel scaled by 1 + 1e-6."""

    CASE = ("super", 10.0, (3, 0, "u2", False))

    def _ref_and_point(self):
        band, t, (dim, j, data, v_norm) = self.CASE
        tau, beta = BANDS[band]
        ref = _reference_norm(_reference_states(tau, beta, t), data, dim, j, tau, v_norm)
        return ref, validate(tau, beta), t, (dim, j, data, v_norm)

    def test_a_norm_two_tolerances_off_fails(self):
        ref, p, t, (dim, j, data, v_norm) = self._ref_and_point()
        got = _package_norm(p, data, dim, j, t, v_norm)
        assert abs(got - ref) <= QUAD_TOL
        assert not abs(got + 2.0 * QUAD_TOL - ref) <= QUAD_TOL

    def test_a_kernel_scaled_by_one_plus_1e6_fails(self, monkeypatch):
        # the mode is linear in its initial state, so scaling the data every mode
        # starts from scales every propagated state, whichever path computes it
        ref, p, t, (dim, j, data, v_norm) = self._ref_and_point()
        call = FrequencyProfile.__call__
        monkeypatch.setattr(FrequencyProfile, "__call__",
                            lambda self, k: (1.0 + 1e-6) * call(self, k))
        got = _package_norm(p, data, dim, j, t, v_norm)
        assert not abs(got - ref) <= QUAD_TOL
