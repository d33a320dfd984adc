"""The check records behind `mgt verify`'s lines and `mgt decay`'s verdict.

Each verify suite returns its list of decay.Check records; a suite's line is
the join of their texts, and both exit codes read `passed`.
"""

import dataclasses
import json
import re

import numpy as np
import pytest

from mgt_spectral import Check, cli, decay, validate, verify

P = validate(0.1, 1.0)


@pytest.fixture(scope="module")
def quick_records():
    return verify._run_suites(P, True)


def test_every_judged_check_names_its_bound(quick_records):
    checks = [c for _, suite in quick_records for c in suite]
    assert all(isinstance(c, Check) for c in checks)
    judged = [c for c in checks if c.ran]
    assert len(judged) >= 10
    for c in judged:
        assert c.bound is not None and np.isfinite(c.bound), c
    # the readings (sample counts and the like) name none and never fail
    for c in checks:
        assert c.ran or c.passed, c


def test_each_suite_line_is_the_join_of_its_records(quick_records):
    text = verify._report(P, True, quick_records)
    lines = text.splitlines()
    assert len(lines) == len(quick_records) + 2
    for line, (name, checks) in zip(lines[1:-1], quick_records):
        shown = [str(c) for c in checks if str(c)]
        assert line == f"[PASS] {name}: " + " ".join(shown)
        # each printed field is its record's name and value
        fields = dict(re.findall(r"(\w+)=(\S+)", line))
        assert list(fields) == [c.name for c in checks if str(c)]
        for c in checks:
            if "{value:" in c.text:
                assert float(fields[c.name]) == pytest.approx(c.value, rel=1e-2, abs=1e-3), c
    assert lines[-1] == "verify: all suites passed" and verify.passed(quick_records)


def test_theorem_bounds_outside_the_window_did_not_run():
    # at (0.999999, 1) the window t_min (beta - tau) >= 3 is never reached on
    # [1e2, 1e3], so the PASS judges no curve, and the records say so
    checks = verify._suite_theorem_bounds(validate(0.999999, 1.0), True)
    window, *curves = checks
    assert (window.name, window.value) == ("asymptotic_window", False)
    assert [c.name for c in curves] == ["dim3_slope", "dim1_bound", "weighted_slope"]
    assert all(not c.ran and c.passed for c in curves)
    assert all(c.ran for c in verify._suite_theorem_bounds(P, True)[1:])


def test_quick_report_at_the_default_point(quick_records):
    assert verify._report(P, True, quick_records) == (
        "mgt-spectral 0.1.0 verify (tau=0.10000000000000001, beta=1, quick=True)\n"
        "[PASS] spectrum_sweep: n=1000 max_residual=3.04e-16 max_vieta=6.27e-16 "
        "min_axis_dist=2.54e-04\n"
        "[PASS] oracle_equivalence: n=20 max_mismatch=1.23e-13\n"
        "[PASS] energy_identity: n=5 max_identity_residual=2.72e-16\n"
        "[PASS] gronwall_margin: pairs=3 min_gamma5=3.028e-01 max_growth=0.00e+00\n"
        "[PASS] integral_lemmas: combos=2 max_ratio=1.048\n"
        "[PASS] theorem_bounds: asymptotic_window=True dim3_slope=-0.250 dim1_bound=ok "
        "weighted_slope=-0.259\n"
        "verify: all suites passed\n")


@pytest.mark.parametrize("tau, beta, shown", [
    # the slopes keep their rules; the N=3 curve leaves its bound
    (1e-3, 1e3, {"dim3_slope": "-0.245(bound_excess=1.74e-06,t=2154.43)",
                 "dim1_bound": "ok", "weighted_slope": "-1.385"}),
    # both slopes leave their rules, and both curves their bounds
    (1e3, 2e3, {"dim3_slope": "-0.141(bound_excess=6.35e+00,t=3162.28;|slope+0.25|=0.109>0.05)",
                "dim1_bound": "ok",
                "weighted_slope": "-0.144(bound_excess=6.27e+00,t=3162.28;slope>-0.2)"}),
])
def test_a_failing_theorem_bound_names_its_rule(tau, beta, shown):
    checks = verify._suite_theorem_bounds(validate(tau, beta), False)
    for c in checks[1:]:
        assert str(c) == f"{c.name}={shown[c.name]}"
        assert c.passed == (shown[c.name] in ("ok", f"{c.value:+.3f}")), c


@pytest.fixture
def tilted(monkeypatch):
    """Every decay curve multiplied by (1+t)^0.05: a rate 0.05 too slow."""
    exact = decay.decay_curve

    def tilt(*args, **kwargs):
        curve = exact(*args, **kwargs)
        return dataclasses.replace(curve, values=curve.values * (1.0 + curve.times) ** 0.05)

    monkeypatch.setattr(decay, "decay_curve", tilt)


def test_tilted_curve_fails_the_decay_verdict(capsys, tilted):
    argv = ["decay", "--tau", "0.1", "--beta", "1", "--t-count", "9", "--format", "json"]
    assert cli.main(argv) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["verdict"] == "VIOLATION"
    assert "bound_constant_early_window" in summary


def test_tilted_curve_fails_verify(tilted):
    checks = verify._suite_theorem_bounds(P, True)
    dim3 = {c.name: c for c in checks}["dim3_slope"]
    assert dim3.ran and not dim3.passed
    assert not verify.passed([("theorem_bounds", checks)])
    # the fitted slope is the exact curve's: the bound rule alone fails, at the last time
    assert str(dim3) == f"dim3_slope={dim3.value:+.3f}(bound_excess=1.10e-03,t=1000)"


def test_a_slope_alone_fails_by_its_rule(monkeypatch):
    exact = decay.decay_curve
    monkeypatch.setattr(decay, "decay_curve", lambda *args, **kwargs: dataclasses.replace(
        exact(*args, **kwargs), fitted_slope=-0.1))
    shown = [str(c) for c in verify._suite_theorem_bounds(P, True)]
    assert shown == ["asymptotic_window=True", "dim3_slope=-0.100(|slope+0.25|=0.150>0.05)",
                     "dim1_bound=ok", "weighted_slope=-0.100(slope>-0.2)"]


def _nan_on_call(monkeypatch, module, name, n, poison):
    """Replace module.name so that its n-th call returns poison(result)."""
    exact, calls = getattr(module, name), []

    def wrapped(*args, **kwargs):
        calls.append(None)
        out = exact(*args, **kwargs)
        return poison(out) if len(calls) == n else out

    monkeypatch.setattr(module, name, wrapped)


def _checks(checks):
    return {c.name: c for c in checks}


def test_a_nan_mode_fails_oracle_equivalence(monkeypatch):
    from mgt_spectral import mode_solver
    # one NaN u among 20 draws; the other 19 agree to ~1e-13
    _nan_on_call(monkeypatch, mode_solver, "solve_mode", 7,
                 lambda st: dataclasses.replace(st, u_hat=complex(np.nan)))
    check = _checks(verify._suite_oracle(np.random.default_rng(0), 20))["max_mismatch"]
    assert np.isnan(check.value) and not check.passed


def test_a_nan_residual_fails_energy_identity(monkeypatch):
    from mgt_spectral import lyapunov
    _nan_on_call(monkeypatch, lyapunov, "energy_dissipation_residual", 3,
                 lambda rs: (np.where(np.arange(rs[0].size) == 4, np.nan, rs[0]), rs[1]))
    check = _checks(verify._suite_energy(np.random.default_rng(0), 5))["max_identity_residual"]
    assert np.isnan(check.value) and not check.passed


def test_a_nan_gamma5_fails_gronwall_margin(monkeypatch):
    from mgt_spectral import lyapunov
    _nan_on_call(monkeypatch, lyapunov, "default_weights", 2,
                 lambda w: dataclasses.replace(w, gamma5=np.nan))
    check = _checks(verify._suite_gronwall(P, np.random.default_rng(0), 2))["min_gamma5"]
    assert np.isnan(check.value) and not check.passed


def test_a_nan_lyapunov_value_fails_gronwall_margin(monkeypatch):
    from mgt_spectral import lyapunov
    _nan_on_call(monkeypatch, lyapunov, "functionals", 2,
                 lambda f: dataclasses.replace(f, lyap=np.where(f.rho > 0.5, np.nan, f.lyap)))
    check = _checks(verify._suite_gronwall(P, np.random.default_rng(0), 2))["max_growth"]
    assert np.isnan(check.value) and not check.passed


def test_a_nan_error_estimate_fails_error_excess(monkeypatch):
    # one NaN quadrature error estimate: sine_low at t = 1e4, the last time of the grid
    quadratures = decay._lemma_quadratures

    def poisoned(dim, j, c, t):
        rows = quadratures(dim, j, c, t)
        if t == 1e4:
            quad, tol, bound = rows["sine_low"]
            rows["sine_low"] = (dataclasses.replace(quad, error=np.nan), tol, bound)
        return rows

    monkeypatch.setattr(decay, "_lemma_quadratures", poisoned)
    checks = _checks(verify._suite_lemmas(True))
    assert np.isnan(checks["error_excess"].value) and not checks["error_excess"].passed
    # the bound rule saw no NaN value
    assert checks["sine_low_bound_excess"].passed
