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
