import numpy as np
import pytest
from scipy.integrate import quad

from mgt_spectral import (FrequencyProfile, QuadResult, adaptive_quadrature, decay_curve,
                          quadrature, validate)
from mgt_spectral.errors import QuadratureFailure
from mgt_spectral.quadrature import _BLOCK_NODES, _NODES, _WGFULL, _WK


class TestGaussKronrod:
    def test_polynomial_exact(self):
        # a single K15 panel integrates degree <= 22 polynomials exactly
        res = adaptive_quadrature(lambda x: 7 * x**6 - 3 * x**2 + 1, -1.0, 2.0,
                                  1e-12, min_intervals=1)
        exact = 2.0**7 - (-1.0) ** 7 - (2.0**3 - (-1.0) ** 3) + 3.0
        assert res.value == pytest.approx(exact, rel=1e-14)

    def test_matches_quadpack(self):
        for fn, a, b in [
            (lambda x: np.exp(-x * x), 0.0, 6.0),
            (lambda x: np.sin(10 * x) ** 2 * np.exp(-x), 0.0, 20.0),
            (lambda x: 1.0 / (1.0 + x * x), 0.0, 50.0),
        ]:
            res = adaptive_quadrature(fn, a, b, 1e-11)
            ref, _ = quad(fn, a, b, limit=500)
            assert res.value == pytest.approx(ref, abs=1e-9)

    def test_oscillatory_with_width_cap(self):
        t = 2000.0
        fn = lambda x: np.sin(t * x) ** 2 * np.exp(-x * x)
        res = adaptive_quadrature(fn, 0.0, 5.0, 1e-10, max_width=np.pi / (4 * t))
        # sin^2 averages to 1/2 at large t
        assert res.value == pytest.approx(0.5 * np.sqrt(np.pi) / 2.0, rel=1e-4)

    def test_zero_width(self):
        res = adaptive_quadrature(lambda x: x, 1.0, 1.0, 1e-10)
        assert res == QuadResult(0.0, 0.0, 0, 0)

    def test_budget_exhaustion(self):
        with pytest.raises(QuadratureFailure):
            adaptive_quadrature(lambda x: np.sin(1e5 * x), 0.0, 1.0, 1e-300,
                                node_budget=3000)

    def test_width_cap_beyond_budget(self):
        with pytest.raises(QuadratureFailure):
            adaptive_quadrature(lambda x: x, 0.0, 1.0, 1e-6, max_width=1e-9,
                                node_budget=1000)

    def test_deterministic(self):
        fn = lambda x: np.cos(37.0 * x) ** 2 / (1.0 + x)
        a = adaptive_quadrature(fn, 0.0, 10.0, 1e-11)
        b = adaptive_quadrature(fn, 0.0, 10.0, 1e-11)
        assert a.value == b.value and a.n_nodes == b.n_nodes

    def test_initial_edges_respected(self):
        sharp = lambda x: np.where(x < 1.0, 0.0, 1.0)
        res = adaptive_quadrature(sharp, 0.0, 2.0, 1e-9, initial_edges=[1.0])
        assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            adaptive_quadrature(lambda x: x, 1.0, 0.0, 1e-9)
        with pytest.raises(ValueError):
            adaptive_quadrature(lambda x: x, 0.0, 1.0, -1e-9)
        with pytest.raises(ValueError, match="tol must be positive"):
            adaptive_quadrature(lambda x: np.sin(50.0 * x) ** 2, 0.0, 10.0, np.nan)
        for width in (0.0, np.nan):
            with pytest.raises(ValueError, match="max_width must be positive"):
                adaptive_quadrature(lambda x: x, 0.0, 1.0, 1e-9, max_width=width)


def _gk_batch_unblocked(f, lefts, rights):
    """Every node of the batch in one integrand call: the reference that the
    blocked evaluation must reproduce bit for bit."""
    half = 0.5 * (rights - lefts)
    mid = 0.5 * (rights + lefts)
    x = mid[:, None] + half[:, None] * _NODES[None, :]
    y = f(x.ravel()).reshape(x.shape)
    vals_k = (y * _WK[None, :]).sum(axis=1) * half
    vals_g = (y * _WGFULL[None, :]).sum(axis=1) * half
    return vals_k, np.abs(vals_k - vals_g)


T_OSC = 2000.0
CAP = np.pi / (4 * T_OSC)


def _oscillatory(x):
    return np.sin(T_OSC * x) ** 2 * np.exp(-x * x)


def _oscillatory_with_cusp(x):
    # sqrt has no bounded derivative at 0, so the first panels must be bisected
    return _oscillatory(x) + np.sqrt(x)


class TestBlockedEvaluation:
    def test_calls_never_exceed_block(self):
        sizes = []

        def spy(x):
            sizes.append(x.size)
            return _oscillatory(x)

        res = adaptive_quadrature(spy, 0.0, 5.0, 1e-10, max_width=CAP)
        assert res.n_nodes > 2 * _BLOCK_NODES
        assert max(sizes) <= _BLOCK_NODES
        assert sum(sizes) == res.n_nodes

    @pytest.mark.parametrize("fn, tol, refines", [(_oscillatory, 1e-10, False),
                                                  (_oscillatory_with_cusp, 1e-12, True)])
    def test_bit_identical_to_unblocked(self, monkeypatch, fn, tol, refines):
        blocked = adaptive_quadrature(fn, 0.0, 5.0, tol, max_width=CAP)
        monkeypatch.setattr(quadrature, "_gk_batch", _gk_batch_unblocked)
        reference = adaptive_quadrature(fn, 0.0, 5.0, tol, max_width=CAP)
        assert blocked.n_nodes > 2 * _BLOCK_NODES
        # every bisection puts two intervals (30 nodes) in place of one
        assert (blocked.n_nodes > 15 * blocked.n_intervals) == refines
        assert blocked == reference

    def test_decay_curve_bit_identical_to_unblocked(self, monkeypatch):
        g = FrequencyProfile.gaussian()
        p = validate(0.9 * 1.25, 1.25)

        def curve():
            return decay_curve(p, (g, g, g), dim=3, j=1, time_grid=[3e2, 1e3],
                               quad_tol=1e-10, v_norm=True).values

        blocked = curve()
        monkeypatch.setattr(quadrature, "_gk_batch", _gk_batch_unblocked)
        assert np.array_equal(blocked, curve())
