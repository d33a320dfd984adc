"""Tests of the benchmark itself: checks, span accounting, seeding, metadata.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def cli_results():
    """Results of the ops of the first cli_scan cycle."""
    return [(op, workloads.execute(op)) for op in workloads.cycle("cli_scan", 7, 0)]


def _first(results, kind):
    return next((op, res) for op, res in results if op.kind == kind)


# ---------------------------------------------------------------------------
# each check accepts the program's output and rejects a perturbed one
# ---------------------------------------------------------------------------

def test_ordinary_cli_ops_pass(cli_results):
    assert [workloads.check(op, res) for op, res in cli_results] == [None] * len(cli_results)


def _replace_row_field(text: str, row: int, col: int, fn) -> str:
    lines = text.splitlines()
    body = [i for i, ln in enumerate(lines) if ln and ln[0].isdigit()]
    fields = lines[body[row]].split(",")
    fields[col] = repr(fn(float(fields[col])))
    lines[body[row]] = ",".join(fields)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("col, cause", [(1, "mode:u_vs_expm"), (4, "mode:energy_vs_expm"),
                                        (3, "mode:v_sq_vs_expm")])
def test_mode_check_rejects_perturbed_row(cli_results, col, cause):
    op, res = _first(cli_results, "mode")
    bad = _replace_row_field(res.out, 50, col, lambda x: x + 1e-4 * (1.0 + abs(x)))
    assert checks.check_mode(op.tau, op.beta, op.extra["k"], op.extra["y0"],
                             workloads.MODE_TIMES, bad) == cause


def test_mode_check_rejects_nonzero_exit(cli_results):
    op, res = _first(cli_results, "mode")
    assert workloads.check(op, workloads.CliOutput(4, "", "numerical failure")) == "mode:exit4"


def test_atlas_check_rejects_perturbed_root(cli_results):
    op, res = _first(cli_results, "atlas")
    bad = _replace_row_field(res.out, 123, 1, lambda x: x * (1.0 + 1e-6))
    assert checks.check_atlas(op.tau, op.beta, op.extra["grid"], bad) == "atlas:residual"


def test_atlas_check_rejects_repeated_root(cli_results):
    op, res = _first(cli_results, "atlas")
    lines = res.out.splitlines()
    i = next(i for i, ln in enumerate(lines) if ln and ln[0].isdigit())
    f = lines[i + 7].split(",")
    f[3:7] = f[1:3] * 2                      # every root replaced by the first
    lines[i + 7] = ",".join(f)
    bad = "\n".join(lines) + "\n"
    assert checks.check_atlas(op.tau, op.beta, op.extra["grid"], bad) == "atlas:vieta"


def test_classify_check_rejects_wrong_threshold_and_regime():
    text = workloads.execute(workloads.Op("classify", "sub", 0.1, 1.0,
                                          argv=("classify", "--tau", "0.1", "--beta", "1"))).out
    assert checks.check_classify(0.1, 1.0, text) is None
    assert "m1 = 3.125" in text
    assert checks.check_classify(0.1, 1.0, text.replace("m1 = 3.125", "m1 = 3.1250001")) \
        == "classify:thresholds"
    assert checks.check_classify(0.1, 1.0, text.replace("SubCritical", "SuperCritical")) \
        == "classify:regime"
    assert checks.check_classify(0.1, 1.0, text.replace("C1 = -253", "C1 = -252")) \
        == "classify:c1"


def test_exact_thresholds_match_the_closed_form():
    m1, m2 = checks.exact_thresholds(0.1, 1.0)
    assert m1 == pytest.approx(3.125, rel=1e-15) and m2 == pytest.approx(3.2, rel=1e-15)
    assert checks.exact_thresholds(0.2, 1.0) is None
    assert checks.exact_regime(1.0, 9.0) == {"Critical"}
    assert checks.exact_regime(1.0, 9.0 * (1 + 1e-12)) == {"Critical", "SubCritical"}


@pytest.fixture(scope="module")
def headline_curve():
    op = workloads.Op("dim3_j0", "sub", 0.1, 1.0)
    return op, workloads.execute(op)


def _decay_cause(op, curve, values=None, exponent=None, slope="same"):
    case = workloads.DECAY_CASES[op.kind]
    return checks.check_decay_curve(
        op.tau, op.beta, workloads.DECAY_TIMES, workloads.DECAY_QUAD_TOL, case.exponent,
        case.headline, curve.times, curve.values if values is None else values,
        curve.bound_exponent if exponent is None else exponent,
        curve.fitted_slope if slope == "same" else slope)


def test_decay_check_accepts_and_rejects(headline_curve):
    op, curve = headline_curve
    v, t = curve.values, curve.times
    assert _decay_cause(op, curve) is None
    nan = v.copy()
    nan[2] = np.nan
    assert _decay_cause(op, curve, values=nan) == "decay:nonfinite"
    neg = v.copy()
    neg[-1] = -neg[-1]
    assert _decay_cause(op, curve, values=neg) == "decay:negative"
    assert _decay_cause(op, curve, exponent=0.25) == "decay:exponent"
    rising = v.copy()
    rising[-1] *= 1.5
    assert _decay_cause(op, curve, values=rising) == "decay:bound_rule"
    assert _decay_cause(op, curve, slope=curve.fitted_slope + 0.01) == "decay:fitted_slope"
    # a curve decaying like t^-0.4 stays inside the bound but misses the rate
    steep = v[0] * ((1.0 + t) / (1.0 + t[0])) ** -0.4
    assert _decay_cause(op, curve, values=steep,
                        slope=checks.slope(t, steep)) == "decay:headline_slope"


_VERIFY_OK = """mgt-spectral 0.1.0 verify (tau=0.10000000000000001, beta=1, quick=True)
[PASS] spectrum_sweep: n=1000 max_residual=2.13e-16 max_vieta=8.78e-15 min_axis_dist=2.54e-04
[PASS] oracle_equivalence: n=20 max_mismatch=1.38e-08
[PASS] energy_identity: n=5 max_identity_residual=1.33e-16
[PASS] gronwall_margin: pairs=3 min_gamma5=3.028e-01 max_growth=0.00e+00
[PASS] integral_lemmas: combos=2 max_ratio=1.048
[PASS] theorem_bounds: asymptotic_window=True dim3_slope=-0.250 dim1_bound=ok weighted_slope=-0.259
verify: all suites passed
"""


@pytest.mark.parametrize("old, new, cause", [
    ("[PASS] energy_identity", "[FAIL] energy_identity", "verify:energy_identity"),
    ("max_mismatch=1.38e-08", "max_mismatch=2.00e-06", "verify:oracle_equivalence_numbers"),
    ("max_ratio=1.048", "max_ratio=1.050", "verify:integral_lemmas_numbers"),
    ("dim3_slope=-0.250", "dim3_slope=-0.310", "verify:theorem_bounds_numbers"),
    ("asymptotic_window=True", "asymptotic_window=False", "verify:theorem_bounds_numbers"),
    ("verify: all suites passed", "verify: FAILURES detected", "verify:format"),
])
def test_verify_check_rejects_perturbed_report(old, new, cause):
    assert checks.check_verify(0.1, 1.0, 0, _VERIFY_OK) is None
    assert checks.check_verify(0.1, 1.0, 0, _VERIFY_OK.replace(old, new)) == cause
    assert checks.check_verify(0.1, 1.0, 1, _VERIFY_OK) == "verify:exit1"


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

def test_self_time_on_synthetic_tree():
    tree = [
        spans.Span("bench", 0, 100, -1),
        spans.Span("cli.main", 10, 90, 0, count=0),
        spans.Span("spectrum.atlas", 20, 60, 1, count=3),
        spans.Span("spectrum.eigenvalues", 25, 35, 2),
        spans.Span("spectrum.eigenvalues", 40, 45, 2),
        spans.Span("mode_solver.solve_mode", 65, 85, 1, error="IllConditioned"),
        spans.Span("mode_solver.mode_coefficients", 70, 80, 5, error="IllConditioned"),
    ]
    assert spans.self_times(tree) == [20, 20, 25, 10, 5, 10, 10]
    m = spans.layer_metrics(tree, bytes_written=7)
    assert m["bench.self_s"] == pytest.approx(20e-9)
    assert m["cli.self_s"] == pytest.approx(20e-9)
    assert m["spectrum.atlas.self_s"] == pytest.approx(25e-9)
    assert m["spectrum.atlas.points"] == 3
    assert m["spectrum.eigenvalues.calls"] == 2
    assert m["spectrum.eigenvalues.self_s"] == pytest.approx(15e-9)
    # the nested call inside the same group is one call and one error
    assert m["mode_solver.scalar.calls"] == 1
    assert m["mode_solver.scalar.errors"] == 1
    assert m["mode_solver.scalar.self_s"] == pytest.approx(20e-9)
    assert m["trace.wall_s"] == pytest.approx(100e-9)
    assert m["cli.bytes_written"] == 7 and m["cli.errors"] == 0
    total = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert total == pytest.approx(m["trace.wall_s"])


def test_install_reaches_the_hot_path_through_every_alias():
    import mgt_spectral
    from mgt_spectral import decay, lyapunov, mode_solver, spectrum

    original = decay.solve_modes_on_grid
    rec = spans.Recorder()
    patched = spans.install(rec, mgt_spectral)
    try:
        assert decay.solve_modes_on_grid is mode_solver.solve_modes_on_grid
        assert lyapunov.mode_coefficients is mode_solver.mode_coefficients
        assert mgt_spectral.eigenvalues is spectrum.eigenvalues
        assert decay.solve_modes_on_grid.__wrapped__ is original
        p = mgt_spectral.validate(0.1, 1.0)
        g, z = decay.FrequencyProfile.gaussian(), decay.FrequencyProfile.zero()
        spans.wrap(rec, decay.sobolev_norm_sq, spans.ROOT)(p, (z, z, g), 3, 0, 10.0, 1e-8)
    finally:
        spans.restore(patched)
    assert decay.solve_modes_on_grid is original
    names = [s.name for s in rec.spans]
    grid = names.index("mode_solver.solve_modes_on_grid")
    quad = rec.spans[grid].parent
    assert names[quad] == "quadrature.adaptive_quadrature"
    assert names[rec.spans[quad].parent] == "decay.sobolev_norm_sq"
    assert names[0] == spans.ROOT
    m = spans.layer_metrics(rec.spans, 0)
    assert m["mode_solver.grid.points"] == m["quadrature.nodes"] > 0
    assert m["lyapunov.weights.calls"] <= 1


# ---------------------------------------------------------------------------
# seeding and metadata
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_draws_but_not_operation_counts(workload):
    def ops(seed):
        return ([op for c in range(16) for op in workloads.cycle(workload, seed, c)]
                + workloads.census(workload, seed))

    a, b, again = ops(1), ops(2), ops(1)
    shape = [(op.kind, op.band, op.census) for op in a]
    assert shape == [(op.kind, op.band, op.census) for op in b]
    assert [(op.tau, op.beta, op.argv) for op in a] == [(op.tau, op.beta, op.argv) for op in again]
    assert all(op.tau != other.tau for op, other in zip(a, b))
    assert all(0.0 < op.tau < op.beta for op in a + b)


def test_draws_stay_in_their_bands():
    for c in range(16):
        for op in workloads.cycle("decay_curves", 3, c):
            r = op.tau / op.beta
            assert {"sub": 0.02 <= r <= 0.09, "super": 0.15 <= r <= 0.6,
                    "near_conservative": 0.85 <= r <= 0.9,
                    "near_critical": 0.99e-13 <= abs(9 * r - 1) <= 1.01e-5}[op.band]


def test_census_sits_in_the_failing_windows():
    assert workloads.census("decay_curves", 5) == []
    for op in workloads.census("verify_quick", 5):
        assert 3.0 <= 1e2 * (op.beta - op.tau) <= 3.5
    for op in workloads.census("cli_scan", 5):
        if op.kind == "mode":
            k2 = op.extra["k"] ** 2
            thr = checks.exact_thresholds(op.tau, op.beta)
            near = [abs(k2 / m - 1) for m in thr] if thr else [abs(9 * op.tau / op.beta - 1)]
            assert min(near) <= 1.01e-5


def test_benchmark_json_matches_the_metrics_produced():
    meta = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in meta["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in meta["per_layer"]} == spans.PER_LAYER
    # twelve cycles of ten ops; op i takes i + 1 ms and the last one fails
    child = {"ops": [{"kind": "mode", "census": False, "cycle": i // 10, "ns": 1e6 * (i + 1),
                      "cause": "mode:exit4" if i == 119 else None} for i in range(120)]
             + [{"kind": "mode", "census": True, "cycle": -1, "ns": 1.0, "cause": "x"}],
             "peak_rss_mb": 80.0}
    metrics, extra = run.end_to_end(child, [0.5, 0.7, 0.6])
    assert {m["name"]: m["unit"] for m in meta["end_to_end"]} == \
        {k: unit for k, (_, unit, _) in metrics.items()}
    assert metrics["setup_s"][0] == 0.6
    assert metrics["ok_frac"][0] == pytest.approx(119 / 120)
    assert metrics["peak_rss_mb"][0] == 80.0
    assert extra["ops_per_s"]["value"] == pytest.approx(119e3 / sum(range(1, 121)))
    assert extra["op_p50_ms"]["value"] == pytest.approx(60.5)
    assert extra["op_p90_ms"]["value"] == pytest.approx(108.1)
    assert extra["census"] == {"attempted": 1, "failed": 1, "by_cause": {"x": 1}}
