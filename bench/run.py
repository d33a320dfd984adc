"""Benchmark of mgt-spectral: three workloads, end to end and layer by layer.

    python3 bench/run.py --workload cli_scan --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all          # every workload, as a table

Run from any directory; the program is imported from src/ next to bench/.
Each workload runs in a fresh single-threaded child (bench/worker.py), one
child at a time. With --trace 0 the last line of standard output is the
end-to-end result; with --trace 1 the workload runs once untraced for half
the time and once traced over the same cycles, and the last line holds the
per-layer metrics and the tracing overhead. The line before it is the full
report: provenance, sample counts, p90 latency where a run has at least 100
operations, failures by cause, and the census of the confluent windows.
See bench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

import spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
#: Fresh interpreters timed per run for setup_s, half before the workload
#: and half after; setup_s is their median.
SETUP_PROBES = 10
CHILD_TIMEOUT_S = 150
P90_MIN_SAMPLES = 100

_IMPORT_PROBE = ("import time; t = time.perf_counter(); import mgt_spectral, mgt_spectral.cli; "
                 "dt = time.perf_counter() - t; print(repr(dt), mgt_spectral.__file__)")


class BenchError(Exception):
    pass


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _run(argv: list[str], timeout: float) -> str:
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=_env(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[1]} did not finish within {timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{argv[1]} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def _import_seconds() -> float:
    """Seconds for a fresh interpreter to import the package and its CLI."""
    dt, path = _run([sys.executable, "-c", _IMPORT_PROBE], 60).split(maxsplit=1)
    if Path(path.strip()).resolve().parent.parent != SRC.resolve():
        raise BenchError(f"setup probe imported mgt_spectral from {path.strip()}")
    return float(dt)


def run_child(workload: str, seed: int, trace: int, *, seconds: float | None = None,
              cycles: int | None = None) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--trace", str(trace)]
    argv += ["--seconds", repr(seconds)] if cycles is None else ["--cycles", str(cycles)]
    return json.loads(_run(argv, CHILD_TIMEOUT_S).splitlines()[-1])


def _git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def provenance(seed: int, children: list[dict]) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "mgt_spectral").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    counts = Counter()
    for child in children:
        counts.update(("census." if o["census"] else "") + o["kind"] for o in child["ops"])
    return {
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "versions": children[0]["versions"],
        "threads_env": children[0]["threads_env"],
        "cycles": [child["cycles"] for child in children],
        "op_counts": dict(sorted(counts.items())),
    }


def _failures(ops: list[dict]) -> dict:
    return {"attempted": len(ops), "failed": sum(o["cause"] is not None for o in ops),
            "by_cause": dict(Counter(o["cause"] for o in ops if o["cause"]))}


def end_to_end(child: dict, setup: list[float]) -> tuple[dict, dict]:
    """(metrics, extra): the gated metrics and the report-only figures."""
    timed = [o for o in child["ops"] if not o["census"]]
    ms = [o["ns"] * 1e-6 for o in timed]
    fails = _failures(timed)
    n = len(timed)
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "ok_frac": (1.0 - fails["failed"] / n, "ratio", n),
        "peak_rss_mb": (child["peak_rss_mb"], "MB", 1),
    }
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[8] if n >= P90_MIN_SAMPLES else None
    extra = {
        "ops_per_s": {"value": 1e3 * (n - fails["failed"]) / sum(ms), "unit": "1/s",
                      "samples": n},
        "op_p50_ms": {"value": statistics.median(ms), "unit": "ms", "samples": n},
        "op_p90_ms": {"value": p90, "unit": "ms", "samples": n},
        "fail_frac": {"value": fails["failed"] / n, "unit": "ratio", "samples": n},
        "failures": fails,
        "census": _failures([o for o in child["ops"] if o["census"]]),
        "op_ms_by_kind": {k: statistics.median(o["ns"] * 1e-6 for o in timed if o["kind"] == k)
                          for k in sorted({o["kind"] for o in timed})},
    }
    return metrics, extra


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """(result, report): the result printed as the last line, and the full report."""
    if trace:
        plain = run_child(workload, seed, 0, seconds=seconds / 2)
        traced = run_child(workload, seed, 1, cycles=plain["cycles"])
        layers = traced["layers"]
        untraced_wall = sum(o["ns"] for o in plain["ops"]) * 1e-9
        layers["trace.overhead_frac"] = layers["trace.wall_s"] / untraced_wall - 1.0
        metrics = {k: (layers[k], unit, None) for k, unit in spans.PER_LAYER.items()}
        children, extra = [plain, traced], {"n_spans": traced["n_spans"],
                                            "untraced_wall_s": untraced_wall}
    else:
        # one untimed import writes the bytecode cache; then half the timed
        # imports run before the workload and half after, so that they meet
        # more than one phase of the host
        _import_seconds()
        setup = [_import_seconds() for _ in range(SETUP_PROBES // 2)]
        child = run_child(workload, seed, 0, seconds=seconds)
        setup += [_import_seconds() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        metrics, extra = end_to_end(child, setup)
        extra["setup_s_samples"] = setup
        children = [child]
    timed = [o for child in children for o in child["ops"] if not o["census"]]
    fails = _failures(timed)
    result = {"correct": fails["failed"] == 0, "attempted": fails["attempted"],
              "failed": fails["failed"],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}}
    report = {"workload": workload, "seconds": seconds, "trace": trace,
              "metrics": {k: {"value": v, "unit": u, "samples": s}
                          for k, (v, u, s) in metrics.items()},
              **extra, "provenance": provenance(seed, children)}
    return result, report


def _table(report: dict) -> str:
    rows = [f"== {report['workload']}"]
    shown = dict(report["metrics"])
    for name in ("ops_per_s", "op_p50_ms", "op_p90_ms", "fail_frac"):
        shown[name] = report[name]
    for name, m in shown.items():
        value = "n/a (< 100 samples)" if m["value"] is None else f"{m['value']:.6g}"
        rows.append(f"  {name:<14} {value:>22} {m['unit']:<6} samples={m['samples']}")
    rows.append(f"  failures by cause: {report['failures']['by_cause'] or 'none'}")
    census = report["census"]
    rows.append(f"  census: {census['failed']}/{census['attempted']} failed"
                + (f" {census['by_cause']}" if census["by_cause"] else ""))
    return "\n".join(rows)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        ap.error("need --seed >= 0 and --seconds > 0")
    if not (SRC / "mgt_spectral" / "__init__.py").is_file():
        print(f"error: no mgt_spectral package under {SRC}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        runs = [run_workload(w, args.seed, args.seconds, args.trace) for w in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    reports = [report for _, report in runs]
    if args.workload == "all":
        if not args.trace:
            print("\n".join(_table(r) for r in reports))
        print(json.dumps(reports))
        return 0 if all(result["correct"] for result, _ in runs) else 1
    result, report = runs[0]
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
