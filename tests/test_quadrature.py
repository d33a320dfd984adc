import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad

from mgt_spectral import (FrequencyProfile, QuadResult, adaptive_quadrature, decay_curve,
                          quadrature, v_norm_sq, validate)
from mgt_spectral.errors import InvalidInput, QuadratureFailure
from mgt_spectral.quadrature import _BLOCK_NODES, _clenshaw_curtis


P = validate(0.1, 1.0)
U2_DATA = (FrequencyProfile.zero(), FrequencyProfile.zero(), FrequencyProfile.gaussian())


def _uniform(a, b, width):
    """Edges of the uniform partition of [a, b] into panels at most `width` wide."""
    return np.linspace(a, b, int(np.ceil((b - a) / width)) + 1)


def _poly_integral(coef, a, b):
    antider = np.polynomial.polynomial.polyint(coef)
    return (np.polynomial.polynomial.polyval(b, antider)
            - np.polynomial.polynomial.polyval(a, antider))


class TestClenshawCurtis:
    def test_panel_orders(self):
        # 17 symmetric points integrate degree <= 17 exactly, the 9 at even
        # slots degree <= 9; the error estimate is their difference
        x = np.cos(np.pi * np.arange(17) / 16)
        for d in range(19):
            val, err = _clenshaw_curtis(x[None, :] ** d, np.ones(1))
            exact = (1.0 - (-1.0) ** (d + 1)) / (d + 1)
            assert (abs(val[0] - exact) <= 1e-15) == (d <= 17), d
            assert (err[0] <= 1e-15) == (d <= 9 or d % 2 == 1), d

    @pytest.mark.parametrize("degree", range(18))
    def test_polynomial_exact(self, degree):
        coef = np.random.default_rng(degree).standard_normal(degree + 1)
        f = lambda x: np.polynomial.polynomial.polyval(x, coef)
        res = adaptive_quadrature(f, -1.0, 2.0, 1e-9)
        exact = _poly_integral(coef, -1.0, 2.0)
        assert res.value == pytest.approx(exact, rel=1e-13)
        if degree <= 9:
            # the 9-point order is exact too: the 8 panels of the minimum
            # partition need no bisection
            assert res.n_nodes == 8 * 17

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
        res = adaptive_quadrature(fn, 0.0, 5.0, 1e-10,
                                  initial_edges=_uniform(0.0, 5.0, np.pi / (4 * t)))
        # sin^2 averages to 1/2 at large t
        assert res.value == pytest.approx(0.5 * np.sqrt(np.pi) / 2.0, rel=1e-4)

    def test_zero_width(self):
        res = adaptive_quadrature(lambda x: x, 1.0, 1.0, 1e-10)
        assert res == QuadResult(0.0, 0.0, 0, 0)

    @pytest.mark.parametrize("run, message", [
        # above the rounding floor, but more than the node budget can resolve
        (lambda: adaptive_quadrature(lambda x: np.sin(1e5 * x), 0.0, 1.0, 1e-14),
         "node budget 1000000 exhausted at error "),
        # below the rounding of the value: raised on the first pass, no budget spent
        (lambda: adaptive_quadrature(lambda x: np.sin(1e5 * x), 0.0, 1.0, 1e-300),
         "target 1.000e-300 lies below the rounding floor "),
        (lambda: v_norm_sq(P, U2_DATA, 3, 0, 1.0, 1e-25 * v_norm_sq(P, U2_DATA, 3, 0, 1.0, 1e-10)),
         "target 9.942e-29 lies below the rounding floor "),
    ], ids=["budget", "floor", "floor_v_norm_sq"])
    def test_unreachable_target_raises(self, run, message):
        with pytest.raises(QuadratureFailure, match=f"^{message}"):
            run()

    def test_width_cap_beyond_budget(self):
        # 59,999 initial panels of 17 nodes
        with pytest.raises(QuadratureFailure, match="exceeds the 1000000-node budget"):
            adaptive_quadrature(lambda x: x, 0.0, 1.0, 1e-6,
                                initial_edges=np.linspace(0.0, 1.0, 60_000))

    def test_deterministic(self):
        fn = lambda x: np.cos(37.0 * x) ** 2 / (1.0 + x)
        a = adaptive_quadrature(fn, 0.0, 10.0, 1e-11)
        b = adaptive_quadrature(fn, 0.0, 10.0, 1e-11)
        assert a.value == b.value and a.n_nodes == b.n_nodes

    def test_initial_edges_respected(self):
        # a kink at 1/3 is a panel end with the edge, so every panel is exact
        kink = lambda x: np.abs(x - 1.0 / 3.0)
        res = adaptive_quadrature(kink, 0.0, 2.0, 1e-12, initial_edges=[1.0 / 3.0])
        assert res.value == pytest.approx(1.0 / 18.0 + 25.0 / 18.0, rel=1e-15)
        assert res.n_nodes == 17 * res.n_intervals
        assert adaptive_quadrature(kink, 0.0, 2.0, 1e-12).n_nodes > res.n_nodes

    def test_rejects_a_reversed_interval(self):
        with pytest.raises(InvalidInput, match=r"^bad interval \[1.0, 0.0\]$"):
            adaptive_quadrature(lambda x: x, 1.0, 0.0, 1e-9)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_integrand_raises(self, bad):
        with pytest.raises(QuadratureFailure, match=r"not finite on \[0.5, 0.625\]"):
            adaptive_quadrature(lambda x: np.where(x > 0.5, bad, x), 0.0, 1.0, 1e-9)


T_OSC = 2000.0
#: panels an eighth of a period wide
CAP_EDGES = _uniform(0.0, 5.0, np.pi / (4 * T_OSC))


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

        res = adaptive_quadrature(spy, 0.0, 5.0, 1e-10, initial_edges=CAP_EDGES)
        assert res.n_nodes > 2 * _BLOCK_NODES
        assert max(sizes) <= _BLOCK_NODES
        assert sum(sizes) == res.n_nodes

    @pytest.mark.parametrize("fn, tol, refines", [(_oscillatory, 1e-10, False),
                                                  (_oscillatory_with_cusp, 1e-12, True)])
    def test_bit_identical_to_unblocked(self, monkeypatch, fn, tol, refines):
        blocked = adaptive_quadrature(fn, 0.0, 5.0, tol, initial_edges=CAP_EDGES)
        monkeypatch.setattr(quadrature, "_BLOCK_NODES", 2**40)
        reference = adaptive_quadrature(fn, 0.0, 5.0, tol, initial_edges=CAP_EDGES)
        assert blocked.n_nodes > 2 * _BLOCK_NODES
        # every bisection puts two panels (34 nodes) in place of one
        assert (blocked.n_nodes > 17 * blocked.n_intervals) == refines
        assert blocked == reference

    def test_split_quadrature_bit_identical_to_unblocked(self, monkeypatch):
        # a few hundred nodes: one block by default, one panel per block here
        f = TestSplitRule._integrand(100.0)
        reference = adaptive_quadrature(f, 0.0, 5.0, 1e-12)
        monkeypatch.setattr(quadrature, "_BLOCK_NODES", 17)
        blocked = adaptive_quadrature(f, 0.0, 5.0, 1e-12)
        assert reference.n_nodes > 10 * 17
        assert blocked == reference

    def test_decay_curve_bit_identical_to_unblocked(self, monkeypatch):
        g = FrequencyProfile.gaussian()
        p = validate(0.9 * 1.25, 1.25)

        def curve():
            return decay_curve(p, (g, g, g), dim=3, j=1, time_grid=[3e2, 1e3],
                               quad_tol=1e-10, v_norm=True)

        reference = curve()
        monkeypatch.setattr(quadrature, "_BLOCK_NODES", 3 * 17)
        blocked = curve()
        assert reference.quad_nodes.max() < _BLOCK_NODES
        assert np.array_equal(blocked.values, reference.values)


class TestSplitRule:
    """Envelope plus harmonics of one phase: Clenshaw-Curtis and Levin panels."""

    @staticmethod
    def _integrand(t, trust=lambda k: np.ones(k.shape, bool)):
        # smooth part exp(-k^2), harmonics of the phase t (k + k^2 / 10)
        def split(k):
            phase = t * (k + 0.1 * k * k)
            amps = np.stack([np.exp(-k) * (1.0 + 0.5j), 0.3 * np.exp(-k * k) + 0j])
            plain = (np.exp(-k * k) + (amps[0] * np.exp(1j * phase)).real
                     + (amps[1] * np.exp(2j * phase)).real)
            return quadrature.Split(plain, trust(k), np.exp(-k * k), amps, phase)
        return split

    @pytest.mark.parametrize("t", [0.0, 3.0, 100.0])
    def test_matches_quadpack(self, t):
        f = self._integrand(t)
        res = adaptive_quadrature(f, 0.0, 5.0, 1e-12)
        ref, _ = quad(lambda k: f(np.array([k])).plain[0], 0.0, 5.0, limit=2000,
                      epsabs=1e-13, epsrel=1e-13)
        assert abs(res.value - ref) <= 1e-12 and res.error <= 1e-12

    def test_node_count_does_not_grow_with_the_phase_rate(self):
        counts = [adaptive_quadrature(self._integrand(t), 0.0, 5.0, 1e-12).n_nodes
                  for t in (1e2, 1e4, 1e6)]
        assert max(counts) <= 2 * min(counts) and max(counts) < 1000

    def test_untrusted_nodes_take_the_plain_values_under_a_turn_limit(self):
        t = 300.0
        untrusted = self._integrand(t, lambda k: k > 1.0)
        ref = adaptive_quadrature(self._integrand(t), 0.0, 5.0, 1e-12)
        res = adaptive_quadrature(untrusted, 0.0, 5.0, 1e-12)
        assert res.value == pytest.approx(ref.value, abs=2e-12)
        # [0, 1] is resolved panel by panel, each turning 2 phase by at most pi
        assert res.n_nodes > 17 * t * 1.1 / np.pi

    def test_stationary_phase_is_bisected(self):
        # phase t (k - 1/2)^2 is stationary at the centre of the first panel,
        # where the two Levin orders can agree far better than either is right
        t = 1e4

        def split(k):
            phase = t * (k - 0.5) ** 2
            amp = np.exp(-4.0 * (k - 0.5) ** 2)
            return quadrature.Split((amp * np.exp(1j * phase)).real, np.ones(k.shape, bool),
                                    np.zeros(k.shape), (amp + 0j)[None], phase)

        res = adaptive_quadrature(split, 0.0, 8.0, 1e-6)
        # composite 20-point Gauss-Legendre on 1e-4-wide panels; amp < e^-30 beyond 3.2
        x, w = np.polynomial.legendre.leggauss(20)
        edges = np.linspace(0.0, 3.2, 32001)
        half = 0.5 * np.diff(edges)[:, None]
        k = 0.5 * (edges[1:] + edges[:-1])[:, None] + half * x
        ref = float((half * w * split(k).plain).sum())
        assert abs(res.value - ref) <= 1e-6

    def test_levin_panel_with_a_stationary_phase_has_no_error_estimate(self):
        # on [0, 1] with phase 1e4 (k - 1/2)^2 the two Levin orders differ by 1.5e-5
        # while the order-17 value is off by 7.5e-3: only bisection can be trusted
        t = 1e4

        def split(k):
            amp = np.exp(-k) + 0j
            return quadrature.Split(np.zeros(k.shape), np.ones(k.shape, bool),
                                    np.zeros(k.shape), amp[None], t * (k - 0.5) ** 2)

        x = np.array([[0.5], [1.5]]) + 0.5 * quadrature._X17
        _, errs = quadrature._split_batch(split(x), np.array([0.5, 0.5]))
        assert errs[0] == np.inf and errs[1] < 1e-9

    def test_one_levin_solve_per_order_matches_a_loop_over_harmonics(self, monkeypatch):
        # eight panels of [0, 5] at t = 3: the first harmonic takes Levin on the
        # later panels only, the second on all of them
        half = np.full(8, 5.0 / 16.0)
        x = (np.arange(8) * 2.0 * half + half)[:, None] + half[:, None] * quadrature._X17
        s = self._integrand(3.0)(x.ravel())
        levin, calls = quadrature._levin, []
        monkeypatch.setattr(quadrature, "_levin", lambda *a: calls.append(len(a[0])) or levin(*a))
        val, err = quadrature._split_batch(s, half)
        assert len(calls) == 2 and calls[0] == calls[1] > 8

        # the same panels one harmonic at a time, each its own pair of Levin solves
        phase = s.phase.reshape(x.shape)
        turn = np.abs(np.diff(phase, axis=1)).sum(axis=1)
        dp = np.einsum("ij,pj->pi", quadrature._D17, phase)
        stationary = dp.min(axis=1) * dp.max(axis=1) <= 0.0
        assert 0 < (turn > np.pi).sum() < 8 and (2.0 * turn > np.pi).all()
        ref_val, ref_err = _clenshaw_curtis(s.smooth.reshape(x.shape), half)
        for m, amp in enumerate(s.amps.reshape((2,) + x.shape), start=1):
            ph, lev = m * phase, m * turn > np.pi
            hval, herr = _clenshaw_curtis((amp * np.exp(1j * ph)).real, half)
            l17 = levin(amp[lev], ph[lev], half[lev], quadrature._D17)
            l9 = levin(amp[lev][:, ::2], ph[lev][:, ::2], half[lev], quadrature._D9)
            hval[lev], herr[lev] = l17, np.abs(l17 - l9)
            herr[lev & stationary] = np.inf
            ref_val += hval
            ref_err += herr
        assert np.array_equal(val, ref_val) and np.array_equal(err, ref_err)

    def test_untrusted_panels_are_split_while_the_phase_turns(self):
        # theta = 16 arccos(2 frac(k) - 1) is a multiple of pi at all 17 points of
        # each unit panel, so both orders read sin^2(theta) = 0 there
        def split(k):
            theta = 16.0 * np.arccos(np.clip(2.0 * (k - np.floor(k)) - 1.0, -1.0, 1.0))
            return quadrature.Split(np.sin(theta) ** 2, np.zeros(k.shape, bool),
                                    np.zeros(k.shape), np.zeros((1,) + k.shape, complex),
                                    theta)

        res = adaptive_quadrature(split, 0.0, 8.0, 1e-9)
        # per panel: int_0^pi sin^2(16 s) sin(s) / 2 ds = 1/2 + 1/2046
        assert res.value == pytest.approx(8.0 * (0.5 + 1.0 / 2046.0), abs=1e-9)

    def test_untrusted_panels_turn_with_the_highest_harmonic(self):
        # one untrusted panel on which the phase turns by 3 pi / 4: the plain values
        # turn as the highest harmonic does, by less than pi with one harmonic
        x = 0.5 + 0.5 * quadrature._X17
        phase = 0.75 * np.pi * x
        amp = np.exp(-x) + 0j
        one = quadrature.Split((amp * np.exp(1j * phase)).real, np.zeros(x.shape, bool),
                               np.zeros(x.shape), amp[None], phase)
        two = dataclasses.replace(one, amps=np.stack([amp, np.zeros(x.shape, complex)]))
        _, err = quadrature._split_batch(one, np.array([0.5]))
        assert np.isfinite(err[0])
        _, err = quadrature._split_batch(two, np.array([0.5]))
        assert err[0] == np.inf

    @pytest.mark.parametrize("t", [1e2, 1e3])
    def test_phase_derivative_is_read_from_a_non_polynomial_phase(self, t):
        # phase t sqrt(1 + k^2), stationary at k = 0, which no 17-point interpolant
        # differentiates exactly
        def split(k):
            phase = t * np.sqrt(1.0 + k * k)
            amp = np.exp(-k) * (1.0 + 0.5j)
            return quadrature.Split((amp * np.exp(1j * phase)).real, np.ones(k.shape, bool),
                                    np.zeros(k.shape), amp[None], phase)

        res = adaptive_quadrature(split, 0.0, 5.0, 1e-12)
        # scipy on the half periods of the phase, where it turns by pi
        turns = np.arange(0.0, t * (np.sqrt(26.0) - 1.0) / np.pi)
        edges = np.append(np.sqrt(((t + np.pi * turns) / t) ** 2 - 1.0), 5.0)
        ref = sum(quad(lambda k: split(np.array([k])).plain[0], a, b, epsabs=0.0,
                       epsrel=1e-12, limit=200)[0]
                  for a, b in zip(edges[:-1], edges[1:]))
        assert abs(res.value - ref) <= 1e-12 and res.n_nodes < 1000

    @pytest.mark.parametrize("field, bad", [("plain", np.nan), ("plain", np.inf),
                                            ("smooth", np.nan)])
    def test_non_finite_integrand_raises(self, field, bad):
        # untrusted panels take the plain values, trusted ones the smooth part
        trust = (lambda k: k < 0.0) if field == "plain" else (lambda k: np.ones(k.shape, bool))
        f = self._integrand(3.0, trust)

        def broken(k):
            s = f(k)
            return dataclasses.replace(s, **{field: np.where(k > 2.5, bad, getattr(s, field))})

        with pytest.raises(QuadratureFailure, match="not finite on"):
            adaptive_quadrature(broken, 0.0, 5.0, 1e-12)

    def test_overflowing_norm_raises_without_a_warning(self):
        # |u|^2 of data at 1e300 overflows: the split panels' inf * 0 and inf - inf
        # reach the typed check silently, under the error::RuntimeWarning filter too
        data = (FrequencyProfile.gaussian(1.0, 1e300), FrequencyProfile.zero(),
                FrequencyProfile.zero())
        with pytest.raises(QuadratureFailure, match="not finite on"):
            decay_curve(P, data, 3, 0, [1e2, 1e3, 1e4], 1e-10)
