"""Spans around the calls into each mgt_spectral layer, installed from outside.

`install` wraps every public function of the layer modules and puts the same
wrapper on every module attribute through which a caller reaches the
function: `decay` imports `solve_modes_on_grid` and `adaptive_quadrature` by
name and `lyapunov` imports `mode_coefficients` and `evaluate_mode`, so
wrapping only the defining module would silently miss the hot path. `params`
is not wrapped; its microsecond calls land in their callers' self time.

A span records its name, start, end and parent. Spans stay in memory until
the run ends; self time is a span's duration minus that of its children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from dataclasses import dataclass

LAYERS = ("spectrum", "mode_solver", "lyapunov", "quadrature", "decay", "cli")

#: Span name of a public function -> the group its self time is reported in.
#: Public functions not listed fall into "<module>.other" ("decay" for decay).
GROUPS = {
    "mode_solver.solve_modes_on_grid": "mode_solver.grid",
    "mode_solver.propagate_numeric": "mode_solver.oracle",
    "mode_solver.solve_mode": "mode_solver.scalar",
    "mode_solver.mode_coefficients": "mode_solver.scalar",
    "mode_solver.evaluate_mode": "mode_solver.scalar",
    "spectrum.eigenvalues": "spectrum.eigenvalues",
    "spectrum.atlas": "spectrum.atlas",
    "spectrum.atlas_rows": "spectrum.atlas",
    "lyapunov.default_weights": "lyapunov.weights",
    "lyapunov.functionals": "lyapunov.functionals",
    "quadrature.adaptive_quadrature": "quadrature",
    "decay.integral_lemma_check": "decay.lemma",
    "decay.FrequencyProfile.__call__": "decay",
    "cli.main": "cli",
}
ROOT = "bench"

#: Per-layer metrics of a traced run: name -> unit.
PER_LAYER = {
    "mode_solver.grid.points": "count",
    "mode_solver.grid.self_s": "s",
    "mode_solver.grid.ns_per_point": "ns",
    "quadrature.calls": "count",
    "quadrature.self_s": "s",
    "quadrature.nodes": "count",
    "quadrature.intervals": "count",
    "quadrature.useful_ratio": "ratio",
    "decay.self_s": "s",
    "decay.lemma.self_s": "s",
    "mode_solver.oracle.calls": "count",
    "mode_solver.oracle.self_s": "s",
    "mode_solver.oracle.errors": "count",
    "spectrum.eigenvalues.calls": "count",
    "spectrum.eigenvalues.self_s": "s",
    "spectrum.atlas.points": "count",
    "spectrum.atlas.self_s": "s",
    "mode_solver.scalar.calls": "count",
    "mode_solver.scalar.self_s": "s",
    "mode_solver.scalar.errors": "count",
    "lyapunov.weights.calls": "count",
    "lyapunov.weights.self_s": "s",
    "lyapunov.functionals.calls": "count",
    "lyapunov.functionals.self_s": "s",
    "spectrum.other.self_s": "s",
    "mode_solver.other.self_s": "s",
    "lyapunov.other.self_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "B",
    "cli.errors": "count",
    "bench.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
}


@dataclass
class Span:
    name: str
    start: int            # perf_counter_ns
    end: int
    parent: int           # index of the enclosing span, -1 for a root
    count: object = None  # work done, read from arguments or the return value
    error: str | None = None


class Recorder:
    """Spans of one run, in the order they were opened."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    def open(self, name: str, count: object = None) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent, count))
        self._open.append(idx)
        return idx

    def close(self, idx: int, count: object = None, error: str | None = None) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter_ns()
        self._open.pop()
        if count is not None:
            span.count = count
        span.error = error

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_ns,end_ns,parent,count,error\n")
            for s in self.spans:
                fh.write(f"{s.name},{s.start},{s.end},{s.parent},"
                         f"{'' if s.count is None else s.count},{s.error or ''}\n")


# work counts read at the boundary: argument on the way in, result on the way out
_COUNT_IN = {
    "mode_solver.solve_modes_on_grid": lambda args, kw: len(args[1]),
    "spectrum.atlas": lambda args, kw: len(args[1]),
}
_COUNT_OUT = {
    "quadrature.adaptive_quadrature": lambda out: (out.n_nodes, out.n_intervals),
    "cli.main": lambda out: out,
}


def wrap(rec: Recorder, fn, name: str):
    """fn with a span named `name` around every call."""
    count_in, count_out = _COUNT_IN.get(name), _COUNT_OUT.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(name, count_in(args, kwargs) if count_in else None)
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            rec.close(idx, error=type(exc).__name__)
            raise
        rec.close(idx, count_out(out) if count_out else None)
        return out

    return wrapper


def group_of(name: str) -> str:
    if name == ROOT or name in GROUPS:
        return GROUPS.get(name, ROOT)
    module = name.split(".", 1)[0]
    return "decay" if module == "decay" else f"{module}.other"


def install(rec: Recorder, package) -> list[tuple[object, str, object]]:
    """Wrap the layer modules' public functions; returns what `restore` undoes."""
    modules = {m: importlib.import_module(f"{package.__name__}.{m}") for m in LAYERS}
    holders = [package] + list(modules.values())
    targets = {}
    for m, mod in modules.items():
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and (m != "cli" or f"cli.{attr}" in GROUPS)):
                targets[obj] = wrap(rec, obj, f"{m}.{attr}")
    patched = []
    for holder in holders:
        for attr, obj in list(vars(holder).items()):
            if inspect.isfunction(obj) and obj in targets:
                patched.append((holder, attr, obj))
                setattr(holder, attr, targets[obj])
    profile = modules["decay"].FrequencyProfile
    patched.append((profile, "__call__", profile.__call__))
    profile.__call__ = wrap(rec, profile.__call__, "decay.FrequencyProfile.__call__")
    return patched


def restore(patched: list[tuple[object, str, object]]) -> None:
    for holder, attr, obj in reversed(patched):
        setattr(holder, attr, obj)


# ---------------------------------------------------------------------------
# self time and per-layer metrics
# ---------------------------------------------------------------------------

def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def layer_metrics(spans: list[Span], bytes_written: int) -> dict[str, float]:
    """Every PER_LAYER metric except trace.overhead_frac, from one run's spans."""
    selfs = self_times(spans)
    groups = [group_of(s.name) for s in spans]
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    errors: dict[str, int] = {}
    points = {"mode_solver.grid": 0, "spectrum.atlas": 0}
    nodes = intervals = 0
    for s, g, own in zip(spans, groups, selfs):
        self_s[g] = self_s.get(g, 0.0) + own * 1e-9
        # a call into a group from inside the same group is not a new call
        if s.parent >= 0 and groups[s.parent] == g:
            continue
        calls[g] = calls.get(g, 0) + 1
        failed = s.error is not None or (g == "cli" and s.count != 0)
        errors[g] = errors.get(g, 0) + int(failed)
        if g in points and s.name in _COUNT_IN:
            points[g] += s.count
        if g == "quadrature" and s.count is not None:
            nodes += s.count[0]
            intervals += s.count[1]
    grid_points = points["mode_solver.grid"]
    out = {
        "mode_solver.grid.points": grid_points,
        "mode_solver.grid.ns_per_point":
            1e9 * self_s.get("mode_solver.grid", 0.0) / grid_points if grid_points else 0.0,
        "quadrature.nodes": nodes,
        "quadrature.intervals": intervals,
        "quadrature.useful_ratio": 15.0 * intervals / nodes if nodes else 0.0,
        "spectrum.atlas.points": points["spectrum.atlas"],
        "cli.bytes_written": bytes_written,
        "trace.wall_s": sum((s.end - s.start) * 1e-9 for s in spans if s.parent < 0),
    }
    for name in PER_LAYER:
        group, _, stat = name.rpartition(".")
        if name in out or group == "trace":
            continue
        table = {"self_s": self_s, "calls": calls, "errors": errors}[stat]
        out[name] = table.get(group, 0)
    return out
