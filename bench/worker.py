"""One benchmark child: runs a workload's cycles and prints one JSON line.

Started by run.py in a fresh interpreter with one BLAS/OpenMP thread and
PYTHONPATH pointing at the checkout's src/. Each operation is timed alone;
its correctness check runs after the clock stops. With --trace 1 every call
into a layer and every operation get a span, and the per-layer metrics are
computed here from the spans, which are written to
.bench_out/spans_<workload>.csv in the checkout when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=None,
                    help="run whole cycles until this much wall time has passed")
    ap.add_argument("--cycles", type=int, default=None, help="run exactly this many cycles")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if (args.seconds is None) == (args.cycles is None):
        ap.error("give exactly one of --seconds and --cycles")

    import mgt_spectral
    import mgt_spectral.cli  # noqa: F401  (the workloads call it in process)

    pkg = Path(mgt_spectral.__file__).resolve().parent
    if pkg.parent != SRC:
        print(f"error: imported mgt_spectral from {pkg}, not from {SRC}", file=sys.stderr)
        return 2

    rec, execute = None, workloads.execute
    if args.trace:
        import spans
        rec = spans.Recorder()
        spans.install(rec, mgt_spectral)
        execute = spans.wrap(rec, workloads.execute, spans.ROOT)

    ops = []
    bytes_written = 0

    def run(op, cycle):
        nonlocal bytes_written
        cause = None
        t0 = time.perf_counter_ns()
        try:
            result = execute(op)
        except Exception as exc:  # noqa: BLE001  (an op failure is a result)
            cause = f"{op.kind}:raised:{type(exc).__name__}"
        dt = time.perf_counter_ns() - t0
        if cause is None:
            cause = workloads.check(op, result)
            if isinstance(result, workloads.CliOutput):
                bytes_written += len(result.out.encode())
        ops.append({"kind": op.kind, "band": op.band, "census": op.census,
                    "cycle": cycle, "ns": dt, "cause": cause})

    start = time.perf_counter()
    c = 0
    while (c < args.cycles) if args.cycles is not None else (
            time.perf_counter() - start < args.seconds):
        for op in workloads.cycle(args.workload, args.seed, c):
            run(op, c)
        c += 1
    for op in workloads.census(args.workload, args.seed):
        run(op, -1)

    import numpy
    import scipy
    out = {
        "cycles": c,
        "ops": ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "mgt_spectral": mgt_spectral.__version__},
        "threads_env": {k: v for k, v in os.environ.items() if k.endswith("_THREADS")},
    }
    if rec is not None:
        out["layers"] = spans.layer_metrics(rec.spans, bytes_written)
        out["n_spans"] = len(rec.spans)
        OUT_DIR.mkdir(exist_ok=True)
        rec.write(OUT_DIR / f"spans_{args.workload}.csv")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
