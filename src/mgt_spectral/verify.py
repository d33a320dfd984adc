"""The numerical invariant suites behind `mgt verify`.

Each suite checks one invariant over random or fixed samples and returns its
checks (decay.Check), each reduced over all its samples by numpy, so that a
NaN anywhere fails it.  `_run_suites` runs them in order on one seeded draw
stream, records a suite that raises an `MGTError` as one failed check, and
returns `(name, checks)` each; `_report` joins them into the `mgt verify` text.
Only gronwall_margin (as its first pair) and theorem_bounds take the run's
(tau, beta); the others use their own random draws or fixed cases.

spectrum_sweep      eigenvalue residuals and Vieta identities of the cubic
oracle_equivalence  the closed-form mode against the matrix-exponential oracle
energy_identity     the energy-dissipation identity along each mode
gronwall_margin     gamma5 > 0 and L(t) exp(gamma5 rho(k) t) never grows
integral_lemmas     each integral-lemma value within its closed-form bound (one
                    check record per series, printed only when it fails) and
                    within its quadrature error target
theorem_bounds      decay curves within the theorem bounds, with sharp slopes
                    once the window is asymptotic

The module loads only when `mgt verify` runs.
"""

from __future__ import annotations

import math

import numpy as np

from . import __version__, decay, lyapunov, mode_solver, params, spectrum
from .decay import Check
from .errors import MGTError


def _count(name: str, value) -> Check:
    """A reading no rule judges, such as a sample count."""
    return Check(name, value, ran=False, text="{name}={value}")


def _random_state(rng, k: float) -> mode_solver.ModeState:
    """A complex initial state with standard normal parts, tagged k."""
    return mode_solver.ModeState(*(rng.standard_normal(3) + 1j * rng.standard_normal(3)), k=k)


def _random_mode(rng, k_hi: float) -> tuple[params.ModelParams, mode_solver.ModeState]:
    """A random point (tau, beta) and a random state at a frequency k in [0, k_hi)."""
    tau = rng.uniform(0.05, 0.9)
    beta = rng.uniform(tau + 0.05, 2.0)
    pp = params.validate(tau, beta)
    return pp, _random_state(rng, float(rng.uniform(0.0, k_hi)))


def _suite_spectrum(rng, n) -> list[Check]:
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
    tol = spectrum.TOL_RESIDUAL
    return [_count("n", n), Check("max_residual", worst_res, tol, worst_res <= tol),
            Check("max_vieta", worst_vieta, tol, worst_vieta <= tol),
            Check("min_axis_dist", min_axis, 1e-10, min_axis > 1e-10)]


def _suite_oracle(rng, n) -> list[Check]:
    errs = []
    for _ in range(n):
        pp, init = _random_mode(rng, 50.0)
        t = float(rng.uniform(0.0, 20.0))
        a = mode_solver.solve_mode(pp, init, t)
        b = mode_solver.propagate_numeric(pp, init, t)
        errs.append(math.hypot(*np.abs(a.as_array() - b.as_array())) / (1.0 + init.norm()))
    worst = float(np.max(errs))
    return [_count("n", n), Check("max_mismatch", worst, 1e-6, worst <= 1e-6)]


def _suite_energy(rng, n) -> list[Check]:
    rel = []
    for _ in range(n):
        pp, init = _random_mode(rng, 20.0)
        ts = rng.uniform(0.0, 10.0, 10)
        res, scale = lyapunov.energy_dissipation_residual(pp, init, ts)
        rel.append(res / scale)
    worst = float(np.max(rel))
    return [_count("n", n), Check("max_identity_residual", worst, 1e-9, worst <= 1e-9)]


def _suite_gronwall(p, rng, n_pairs) -> list[Check]:
    pairs = [p] + [params.validate(t, b) for t, b in
                   zip(rng.uniform(0.02, 0.9, n_pairs), rng.uniform(1.0, 2.0, n_pairs))]
    g5s = []
    worst_growth = 0.0
    ts = np.linspace(0.0, 20.0, 81)
    ks = np.array([0.3, 1.0, 5.0])
    for pp in pairs:
        w = lyapunov.default_weights(pp)
        g5s.append(w.gamma5)
        # one state drawn per frequency, in order; the three trajectories in one kernel call
        y0 = np.stack([_random_state(rng, k).as_array() for k in ks], axis=1)[:, :, None]
        st = mode_solver.ModeState(*mode_solver._evolve(pp, ks, y0, ts), k=ks[:, None, None])
        f = lyapunov.functionals(pp, st, w)
        val = f.lyap * np.exp(w.gamma5 * f.rho * ts)
        prev, val = val[..., :-1], val[..., 1:]
        up = ~(prev <= 0)  # NaN kept, so that it fails
        worst_growth = float(np.max((val[up] - prev[up]) / prev[up], initial=worst_growth))
    min_g5 = float(np.min(g5s))
    return [_count("pairs", len(pairs)),
            Check("min_gamma5", min_g5, 0.0, min_g5 > 0.0, text="{name}={value:.3e}"),
            Check("max_growth", worst_growth, 1e-8, worst_growth <= 1e-8)]


def _suite_lemmas(quick: bool) -> list[Check]:
    combos = [(1, 0), (3, 0)] if quick else [(1, 0), (2, 0), (3, 0), (1, 2), (2, 1)]
    tgrid = np.concatenate([[0.0], np.geomspace(1e-2, 1e4, 12)])
    series = [s for dim, j in combos
              for s in decay.integral_lemma_check(dim, j, 1.0, tgrid).series.values()]
    worst = max(s.max_ratio for s in series)
    over = float(np.max(np.concatenate([s.quad_error - s.quad_tol for s in series])))
    return [_count("combos", len(combos)),
            Check("max_ratio", worst, ran=False, text="{name}={value:.3f}"),
            # each quadrature error estimate within its target; not printed
            Check("error_excess", over, 0.0, over <= 0.0, text=""),
            # each series' closed-form bound rule; printed only when it fails
            *(s.check for s in series)]


def _suite_theorem_bounds(p, quick: bool) -> list[Check]:
    tgrid = np.geomspace(1e2, 1e3 if quick else 1e4, 7 if quick else 13)
    tol = 1e-8 if quick else 1e-10
    prof = decay.FrequencyProfile
    gauss, zero, free = prof.gaussian(), prof.zero(), prof.moment_free()
    c3, c1, cw = (decay.decay_curve(p, data, dim, 0, tgrid, tol) for data, dim in (
        ((zero, zero, gauss), 3), ((zero, gauss, zero), 1), ((gauss, free, free), 1)))
    b3, b1, bw = (decay.bound_verdict(c, c.bound_exponent, 10 * tol)[0] for c in (c3, c1, cw))
    s3, sw = c3.fitted_slope, cw.fitted_slope

    # the bound and sharp-slope rules need the post-transient window
    # t >> 1/(beta - tau); near the conservative boundary the curves are still
    # rising there, so outside it the three curve checks do not run
    asymptotic = bool(tgrid[0] * (p.beta - p.tau) >= 3.0)

    def curve(name, value, bound, passed, text="{name}={value:+.3f}"):
        return Check(name, value, bound, passed or not asymptotic, asymptotic, text)

    return [_count("asymptotic_window", asymptotic),
            curve("dim3_slope", s3, -0.25, b3.passed and abs(s3 + 0.25) <= 0.05),
            curve("dim1_bound", b1.value, b1.bound, b1.passed, text="{name}={ok}"),
            curve("weighted_slope", sw, -0.25 + 0.05, bw.passed and sw <= -0.25 + 0.05)]


def _run_suites(p: params.ModelParams, quick: bool) -> list[tuple[str, list[Check]]]:
    """(name, checks) of each suite in order; quick takes a tenth of the samples."""
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
            records.append((name, fn()))
        except MGTError as exc:
            records.append((name, [Check(type(exc).__name__, str(exc), passed=False, ran=False,
                                         text="{name}: {value}")]))
    return records


def passed(records: list[tuple[str, list[Check]]]) -> bool:
    """`mgt verify`'s verdict: whether every check of every suite passed."""
    return all(c.passed for _, checks in records for c in checks)


def _report(p: params.ModelParams, quick: bool, records: list[tuple[str, list[Check]]]) -> str:
    """The text `mgt verify` prints: its point, one line per suite, the verdict."""
    lines = [f"mgt-spectral {__version__} verify "
             f"(tau={p.tau:.17g}, beta={p.beta:.17g}, quick={quick})"]
    for name, checks in records:  # a check with an empty text prints nothing
        shown = " ".join(filter(None, map(str, checks)))
        lines.append(f"[{'PASS' if all(c.passed for c in checks) else 'FAIL'}] {name}: {shown}")
    lines.append("verify: " + ("all suites passed" if passed(records) else "FAILURES detected"))
    return "\n".join(lines) + "\n"
