"""The numerical invariant suites behind `mgt verify`.

Each suite checks one invariant over random or fixed samples and returns
`(passed, detail)`.  `_run_suites` runs them in order on one seeded draw
stream, counts a suite that raises an `MGTError` as failed, and returns a
`(name, passed, detail)` record each; `_report` makes the `mgt verify` text.
Only gronwall_margin (as its first pair) and theorem_bounds take the run's
(tau, beta); the others use their own random draws or fixed cases.

spectrum_sweep      eigenvalue residuals and Vieta identities of the cubic
oracle_equivalence  the closed-form mode against the matrix-exponential oracle
energy_identity     the energy-dissipation identity along each mode
gronwall_margin     gamma5 > 0 and L(t) exp(gamma5 rho(k) t) never grows
integral_lemmas     each integral-lemma value within its closed-form bound (a
                    violation raises) and within its quadrature error target
theorem_bounds      decay curves within the theorem bounds, with sharp slopes
                    once the window is asymptotic

The module loads only when `mgt verify` runs.
"""

from __future__ import annotations

import math

import numpy as np

from . import __version__, decay, lyapunov, mode_solver, params, spectrum
from .errors import MGTError


def _random_state(rng, k: float) -> mode_solver.ModeState:
    """A complex initial state with standard normal parts, tagged k."""
    return mode_solver.ModeState(*(rng.standard_normal(3) + 1j * rng.standard_normal(3)), k=k)


def _random_mode(rng, k_hi: float) -> tuple[params.ModelParams, mode_solver.ModeState]:
    """A random point (tau, beta) and a random state at a frequency k in [0, k_hi)."""
    tau = rng.uniform(0.05, 0.9)
    beta = rng.uniform(tau + 0.05, 2.0)
    pp = params.validate(tau, beta)
    return pp, _random_state(rng, float(rng.uniform(0.0, k_hi)))


def _suite_spectrum(rng, n) -> tuple[bool, str]:
    taus = rng.uniform(0.01, 1.0, n)
    betas = np.minimum(taus + rng.uniform(0.02, 2.0, n), 2.0)
    ks = rng.uniform(0.0, 100.0, n)
    for tau, beta in zip(taus, betas):
        params.validate(tau, beta)
    k2 = ks * ks
    # one routed root call over all draws, each row with its own (tau, beta)
    lams, _ = spectrum._spectrum(params.ModelParams(taus, betas), k2)
    r, s = spectrum.characteristic_residual(
        params.ModelParams(taus[:, None], betas[:, None]), lams, ks[:, None])
    worst_res = float(np.max(r / s))
    l1, l2, l3 = lams.T
    vieta = np.maximum.reduce([
        abs(l1 + l2 + l3 + 1.0 / taus) / (1.0 / taus),
        abs(l1 * l2 + l1 * l3 + l2 * l3 - betas * k2 / taus) / np.maximum(1.0, betas * k2 / taus),
        abs(l1 * l2 * l3 + k2 / taus) / np.maximum(1.0, k2 / taus)])
    worst_vieta = float(np.max(vieta))
    min_axis = float(np.min(np.abs(lams[ks > 0].real), initial=math.inf))
    passed = (worst_res <= spectrum.TOL_RESIDUAL and worst_vieta <= spectrum.TOL_RESIDUAL
              and min_axis > 1e-10)
    return passed, (f"n={n} max_residual={worst_res:.2e} "
                    f"max_vieta={worst_vieta:.2e} min_axis_dist={min_axis:.2e}")


def _suite_oracle(rng, n) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(n):
        pp, init = _random_mode(rng, 50.0)
        t = float(rng.uniform(0.0, 20.0))
        a = mode_solver.solve_mode(pp, init, t)
        b = mode_solver.propagate_numeric(pp, init, t)
        err = math.hypot(*np.abs(a.as_array() - b.as_array())) / (1.0 + init.norm())
        worst = max(worst, err)
    return worst <= 1e-6, f"n={n} max_mismatch={worst:.2e}"


def _suite_energy(rng, n) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(n):
        pp, init = _random_mode(rng, 20.0)
        ts = rng.uniform(0.0, 10.0, 10)
        res, scale = lyapunov.energy_dissipation_residual(pp, init, ts)
        worst = max(worst, float((res / scale).max()))
    return worst <= 1e-9, f"n={n} max_identity_residual={worst:.2e}"


def _suite_gronwall(p, rng, n_pairs) -> tuple[bool, str]:
    pairs = [p] + [params.validate(t, b) for t, b in
                   zip(rng.uniform(0.02, 0.9, n_pairs), rng.uniform(1.0, 2.0, n_pairs))]
    min_g5 = math.inf
    worst_growth = 0.0
    ts = np.linspace(0.0, 20.0, 81)
    for pp in pairs:
        w = lyapunov.default_weights(pp)
        min_g5 = min(min_g5, w.gamma5)
        for k in (0.3, 1.0, 5.0):
            init = _random_state(rng, k)
            r = float(lyapunov.rho(k))
            st = mode_solver.solve_mode(pp, init, ts)
            val = lyapunov.functionals(pp, st, w).lyap * np.exp(w.gamma5 * r * ts)
            prev, val = val[:-1], val[1:]
            up = prev > 0
            worst_growth = float(np.max((val[up] - prev[up]) / prev[up], initial=worst_growth))
    passed = min_g5 > 0.0 and worst_growth <= 1e-8
    return passed, f"pairs={len(pairs)} min_gamma5={min_g5:.3e} max_growth={worst_growth:.2e}"


def _suite_lemmas(quick: bool) -> tuple[bool, str]:
    combos = [(1, 0), (3, 0)] if quick else [(1, 0), (2, 0), (3, 0), (1, 2), (2, 1)]
    tgrid = np.concatenate([[0.0], np.geomspace(1e-2, 1e4, 12)])
    # a value above its closed-form bound raises ToleranceFailure, which fails the suite
    series = [s for dim, j in combos
              for s in decay.integral_lemma_check(dim, j, 1.0, tgrid).series.values()]
    passed = all(s.stable and np.all(s.quad_error <= s.quad_tol) for s in series)
    worst = max(s.max_ratio for s in series)
    return passed, f"combos={len(combos)} max_ratio={worst:.3f}"


def _suite_theorem_bounds(p, quick: bool) -> tuple[bool, str]:
    tgrid = np.geomspace(1e2, 1e3 if quick else 1e4, 7 if quick else 13)
    tol = 1e-8 if quick else 1e-10
    gauss = decay.FrequencyProfile.gaussian()
    zero = decay.FrequencyProfile.zero()

    # containment and sharp-slope checks need the post-transient window
    # t >> 1/(beta - tau); near the conservative boundary the curves are still
    # rising there and only finiteness is meaningful at desk scale
    asymptotic = tgrid[0] * (p.beta - p.tau) >= 3.0

    def bound_ok(curve) -> bool:
        if not (np.all(np.isfinite(curve.values)) and np.all(curve.values >= 0.0)):
            return False
        return not asymptotic or decay.bound_verdict(curve, curve.bound_exponent, 10 * tol)[0]

    c3 = decay.decay_curve(p, (zero, zero, gauss), 3, 0, tgrid, tol)
    ok3 = bound_ok(c3)
    if asymptotic:
        ok3 = ok3 and c3.fitted_slope is not None and abs(c3.fitted_slope + 0.25) <= 0.05
    c1 = decay.decay_curve(p, (zero, gauss, zero), 1, 0, tgrid, tol)
    ok1 = bound_ok(c1)
    cw = decay.decay_curve(p, (gauss, decay.FrequencyProfile.moment_free(),
                               decay.FrequencyProfile.moment_free()), 1, 0, tgrid, tol)
    okw = bound_ok(cw)
    if asymptotic:
        okw = okw and cw.fitted_slope is not None and cw.fitted_slope <= -0.25 + 0.05
    passed = ok3 and ok1 and okw
    return passed, (f"asymptotic_window={asymptotic} dim3_slope={c3.fitted_slope:+.3f} "
                    f"dim1_bound={'ok' if ok1 else 'FAIL'} weighted_slope={cw.fitted_slope:+.3f}")


def _run_suites(p: params.ModelParams, quick: bool) -> list[tuple[str, bool, str]]:
    """(name, passed, detail) of each suite in order; quick takes a tenth of the samples."""
    div = 10 if quick else 1
    rng = np.random.default_rng(20240817)
    suites = [
        ("spectrum_sweep", lambda: _suite_spectrum(rng, max(100, 10000 // div))),
        ("oracle_equivalence", lambda: _suite_oracle(rng, max(5, 200 // div))),
        ("energy_identity", lambda: _suite_energy(rng, max(5, 50 // div))),
        ("gronwall_margin", lambda: _suite_gronwall(p, rng, max(2, 10 // div))),
        ("integral_lemmas", lambda: _suite_lemmas(quick)),
        ("theorem_bounds", lambda: _suite_theorem_bounds(p, quick)),
    ]
    records = []
    for name, fn in suites:
        try:
            records.append((name, *fn()))
        except MGTError as exc:
            records.append((name, False, f"{type(exc).__name__}: {exc}"))
    return records


def _report(p: params.ModelParams, quick: bool, records: list[tuple[str, bool, str]]) -> str:
    """The text `mgt verify` prints: its point, one line per suite record, the verdict."""
    lines = [f"mgt-spectral {__version__} verify "
             f"(tau={p.tau:.17g}, beta={p.beta:.17g}, quick={quick})"]
    lines += [f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}" for name, ok, detail in records]
    passed = all(ok for _, ok, _ in records)
    lines.append("verify: " + ("all suites passed" if passed else "FAILURES detected"))
    return "\n".join(lines) + "\n"
