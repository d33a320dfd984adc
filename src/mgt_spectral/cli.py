"""Command-line front end: classification, atlases, modes, decay curves, verify.

Subcommands
-----------
classify   regime, Cardano thresholds, and theorem exponents for (tau, beta)
atlas      branch-continuous eigenvalue table over a frequency grid (CSV)
mode       one mode's trajectory with energy and Lyapunov columns (CSV)
decay      Sobolev-norm decay curve with fitted slope and bound verdict
verify     the full numerical invariant suite (exit 0 iff everything passes)

Exit codes: 0 ok, 1 verification failure, 2 bad input, 3 I/O failure,
4 numerical failure.  Options are spelled out in full: no prefix matching.

Every option of a subcommand except --help and --config is also a config
key, spelled with `_` (--k-count is k_count); a boolean option --x also has
the form --no-x.  A config file holds flat `key = value` lines (`#` starts a
comment); each value becomes the default of the option it names, parsed as
that flag's value would be, so flags override the file.  Booleans are spelled
1/true/yes/on or 0/false/no/off.  An unknown key is an error.  Header line 2
of the classify, atlas, mode and decay output lists every setting of the run.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

from . import __version__, params
from .errors import QuadratureFailure, NonPositiveMargin, DegenerateFit

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_BAD_INPUT = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4

_BAD_INPUT_ERRORS = (ValueError,)
_NUMERICAL_ERRORS = (QuadratureFailure, NonPositiveMargin, DegenerateFit)

#: settings that header line 2 leaves out: tau and beta are recorded as validated,
#: and the rest do not change the numbers
_UNRECORDED = ("command", "tau", "beta", "config", "out")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _header_lines(args: argparse.Namespace, p: params.ModelParams) -> list[str]:
    opts = {k: _fmt(v) if isinstance(v, float) else v
            for k, v in vars(args).items() if k not in _UNRECORDED}
    opts.update(tau=_fmt(p.tau), beta=_fmt(p.beta))
    fields = " ".join(f"{k}={v}" for k, v in sorted(opts.items()))
    return [f"# mgt-spectral {__version__} {args.command}", f"# {fields}"]


def _write_output(path: str, text: str) -> None:
    try:
        if path == "-":
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
    except OSError as exc:
        if path == "-":
            # the unwritten bytes stay buffered: send them to devnull, or the flush at
            # interpreter exit fails again and turns the exit status into 120
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise _IOFail(str(exc)) from exc


def _write_csv(args, p: params.ModelParams, columns: str, rows) -> None:
    lines = _header_lines(args, p) + [columns]
    lines += [",".join(x if isinstance(x, str) else _fmt(x) for x in row) for row in rows]
    _write_output(args.out, "\n".join(lines) + "\n")


class _IOFail(Exception):
    pass


def _make_grid(vmin: float, vmax: float, count: int, log: bool, what: str) -> np.ndarray:
    import numpy as np
    if count < 1 or not (math.isfinite(vmin) and math.isfinite(vmax)) or vmax < vmin:
        raise ValueError(f"bad {what} grid: min={vmin} max={vmax} count={count}")
    if vmin < 0.0:
        flag = "--t-min" if what == "time" else "--k-min"
        raise ValueError(f"{flag} must be >= 0, got {vmin}")
    if count == 1:
        return np.array([vmin])
    if log:
        if vmin <= 0.0:
            raise ValueError(f"log-spaced {what} grid needs min > 0, got {vmin}")
        return np.geomspace(vmin, vmax, count)
    return np.linspace(vmin, vmax, count)


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The mgt parser and its subcommand parsers by name."""
    ap = argparse.ArgumentParser(prog="mgt", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--version", action="version", version=f"mgt-spectral {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    subs = {}

    def opt(sp, name, default, help, **kw):
        # typed by its default; a bool default makes a --name/--no-name flag pair
        if isinstance(default, bool):
            kw["action"] = argparse.BooleanOptionalAction
        else:
            kw["type"] = type(default)
        sp.add_argument(f"--{name}", default=default, help=f"{help} (default: %(default)s)", **kw)

    def command(name, help, *options, point="required"):
        sp = subs[name] = sub.add_parser(name, help=help, description=help, allow_abbrev=False)
        sp.add_argument("--tau", type=float, help=f"relaxation time, 0 < tau < beta ({point})")
        sp.add_argument("--beta", type=float, help=f"damping coefficient ({point})")
        sp.add_argument("--config", help="flat key = value file whose values become the "
                                         "defaults of the options they name")
        opt(sp, "out", "-", "output path, - for stdout")
        for option in options:
            opt(sp, *option)
        return sp

    def grid(v, what, whats, vmin, vmax, count, log):
        return [(f"{v}-min", vmin, f"first {what}"), (f"{v}-max", vmax, f"last {what}"),
                (f"{v}-count", count, f"number of {whats}"),
                (f"{v}-log", log, f"log-spaced {whats}")]

    dim_j = [("dim", 3, "space dimension"), ("j", 0, "derivative order")]
    data = ("data", "u0:gaussian:1:1,u1:zero,u2:zero",
            "u0:TYPE:SCALE:AMP,u1:...,u2:... with types gaussian, mfgaussian, zero")
    command("classify", "regime, thresholds, theorem exponents", *dim_j,
            ("all-bounds", False, "print every applicable bound, not only the best one"))
    command("atlas", "branch-continuous eigenvalue table (CSV)",
            *grid("k", "frequency", "frequencies", 0.0, 5.0, 201, False))
    command("mode", "single-mode trajectory with energy columns (CSV)",
            ("k", 1.0, "frequency magnitude"),
            *grid("t", "time", "times", 0.0, 10.0, 101, False), data)
    sp = command("decay", "Sobolev-norm decay curve and bound verdict",
                 *dim_j, *grid("t", "time", "times", 1e2, 1e4, 25, True), data,
                 ("quad-tol", 1e-10, "quadrature tolerance in (0, 1)"),
                 ("v-norm", False, "measure the energy-variable vector norm instead of the "
                                   "solution norm"))
    opt(sp, "format", "csv", "csv: the curve, then its JSON summary; json: one document",
        choices=("csv", "json"))
    command("verify", "run the full numerical invariant suite; gronwall_margin (as its "
                      "first pair) and theorem_bounds use tau, beta (0.1, 1 unless tau or beta "
                      "is set), the others their own draws or fixed cases",
            ("quick", False, "shrink sample counts 10x"),
            point="optional, given together; default (0.1, 1); used only by gronwall_margin "
                  "and theorem_bounds")
    return ap, subs


#: The parser of main, built once a process and never changed.  Building one leaves
#: hundreds of objects in reference cycles (each action points back at its group),
#: which only a full garbage collection frees, so in-process calls would pile them up.
_parser = functools.cache(_build_parser)


def _model_params(args) -> params.ModelParams:
    if args.tau is None or args.beta is None:
        raise ValueError("both --tau and --beta are required")
    return params.validate(args.tau, args.beta)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_classify(args) -> int:
    p = _model_params(args)
    thr = params.cardano_thresholds(p)
    reg = params.regime(p)
    lines = _header_lines(args, p)
    regime_note = {
        params.Regime.SUB_CRITICAL:
            "three real roots for sqrt(m1) <= |xi| <= sqrt(m2), conjugate pair outside",
        params.Regime.CRITICAL:
            "triple real root at |xi| = sqrt(3)/beta, conjugate pair elsewhere",
        params.Regime.SUPER_CRITICAL:
            "conjugate pair for all |xi| > 0",
    }[reg]
    lines.append(f"regime: {reg.value}; {regime_note}")
    lines += [f"C1 = {_fmt(thr.c1)}", f"C2 = {_fmt(thr.c2)}"]
    for m, value in (("m1", thr.m1), ("m2", thr.m2)):
        lines.append(f"{m} = absent" if value is None
                     else f"{m} = {_fmt(value)} (sqrt({m}) = {_fmt(math.sqrt(value))})")
    dim, j = args.dim, args.j
    for dc in (params.DataClass.L1, params.DataClass.L1_WEIGHTED):
        rates = params.theorem_rates(p, dim, j, dc)
        lines.append(f"decay bound [{dc.value}, dim={dim}, j={j}]: "
                     f"(1+t)^{_fmt(rates.poly_exponent)} + exp(-{_fmt(rates.exp_rate)} t)")
        if args.all_bounds:
            for e in params.applicable_exponents(dim, j, dc):
                lines.append(f"  applicable exponent [{dc.value}]: {_fmt(e)}")
    _write_output(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_atlas(args) -> int:
    p = _model_params(args)
    from . import spectrum
    grid = _make_grid(args.k_min, args.k_max, args.k_count, args.k_log, "frequency")
    _write_csv(args, p, "k,re_l1,im_l1,re_l2,im_l2,re_l3,im_l3,pattern",
               spectrum.atlas_rows(spectrum.atlas(p, grid)))
    return EXIT_OK


def cmd_mode(args) -> int:
    p = _model_params(args)
    from . import lyapunov, mode_solver
    data = mode_solver._parse_data(args.data)
    ts = _make_grid(args.t_min, args.t_max, args.t_count, args.t_log, "time")
    _write_csv(args, p, "t,re_u,im_u,v_sq,energy,lyap",
               lyapunov._trajectory_rows(p, args.k, data, ts))
    return EXIT_OK


def cmd_decay(args) -> int:
    p = _model_params(args)
    import json
    from . import decay, mode_solver
    if not (0.0 < args.quad_tol < 1.0):
        raise ValueError(f"quad_tol must lie in (0, 1), got {args.quad_tol}")
    data = mode_solver._parse_data(args.data)
    ts = _make_grid(args.t_min, args.t_max, args.t_count, args.t_log, "time")
    curve = decay.decay_curve(p, data, args.dim, args.j, ts, args.quad_tol, v_norm=args.v_norm)
    summary, rows = decay._report(curve, json_rows=args.format == "json")
    if args.format == "csv":
        _write_csv(args, p, "t,norm,bound_value", rows)
    # json: the summary alone; csv: the summary after the curve, or in a .json sidecar
    summary_out = args.out if args.format == "json" or args.out == "-" else args.out + ".json"
    _write_output(summary_out, json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    # the suite's own point unless a model parameter is set
    p = _model_params(args) if (args.tau, args.beta) != (None, None) else params.validate(0.1, 1.0)
    from . import verify
    records = verify._run_suites(p, args.quick)
    _write_output(args.out, verify._report(p, args.quick, records))
    return EXIT_OK if verify.passed(records) else EXIT_VERIFY


_COMMANDS = {"classify": cmd_classify, "atlas": cmd_atlas, "mode": cmd_mode,
             "decay": cmd_decay, "verify": cmd_verify}


def main(argv: list[str] | None = None) -> int:
    parser, _ = _parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            from . import _config
            # the config changes defaults, so it gets a parser of its own
            parser, subs = _build_parser()
            _config._apply_config(subs[args.command], _config._load_config(args.config))
            args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _BAD_INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except _IOFail as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
