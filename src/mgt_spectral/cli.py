"""Command-line front end: classification, atlases, modes, decay curves, verify.

Subcommands
-----------
classify   regime, Cardano thresholds, and theorem exponents for (tau, beta)
atlas      branch-continuous eigenvalue table over a frequency grid (CSV)
mode       one mode's trajectory with energy and Lyapunov columns (CSV)
decay      Sobolev-norm decay curve with fitted slope and bound verdict
verify     the full numerical invariant suite (exit 0 iff everything passes)

Exit codes: 0 ok, 1 verification failure, 2 bad input, 3 I/O failure,
4 numerical failure.

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
import math
import sys

from . import __version__, params
from .errors import (MGTError, NonDissipative, NonFinite, GridError, InvalidFrequency,
                     QuadratureFailure, NonPositiveMargin, ToleranceFailure, DegenerateFit,
                     EmptyInput)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_BAD_INPUT = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4

_BAD_INPUT_ERRORS = (NonDissipative, NonFinite, GridError, InvalidFrequency,
                     EmptyInput, ValueError)
_NUMERICAL_ERRORS = (QuadratureFailure, NonPositiveMargin, ToleranceFailure, DegenerateFit)

#: settings that header line 2 leaves out: tau and beta are recorded as validated,
#: with c folded into beta, and the rest do not change the numbers
_UNRECORDED = ("command", "tau", "beta", "c", "config", "out")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _header_lines(args: argparse.Namespace, p: params.ModelParams) -> list[str]:
    opts = {k: _fmt(v) if isinstance(v, float) else v
            for k, v in vars(args).items() if k not in _UNRECORDED}
    opts.update(tau=_fmt(p.tau), beta=_fmt(p.beta))
    fields = " ".join(f"{k}={v}" for k, v in sorted(opts.items()))
    return [f"# mgt-spectral {__version__} {args.command}", f"# {fields}"]


def _write_output(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise _IOFail(str(exc)) from exc


def _write_csv(args, p: params.ModelParams, columns: str, rows) -> None:
    lines = _header_lines(args, p) + [columns]
    lines += [",".join(x if isinstance(x, str) else _fmt(x) for x in row) for row in rows]
    _write_output(args.out, "\n".join(lines) + "\n")


class _IOFail(Exception):
    pass


# ---------------------------------------------------------------------------
# config file and argument plumbing
# ---------------------------------------------------------------------------

def _load_config(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    out: dict[str, str] = {}
    for ln, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{ln}: expected 'key = value', got {raw.strip()!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if not key or not val:
            raise ValueError(f"{path}:{ln}: empty key or value")
        out[key.replace("-", "_")] = val
    return out


_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def _apply_config(sp: argparse.ArgumentParser, config: dict[str, str]) -> None:
    """Make each config value the default of the option of sp that it names.

    A value is parsed by sp itself, as its flag's value would be (type and
    choices, exit 2 on a bad one); a boolean flag takes a boolean word.
    """
    actions = {a.dest: a for a in sp._actions
               if a.option_strings and a.dest not in ("help", "config")}
    for key, val in config.items():
        action = actions.get(key)
        if action is None:
            raise ValueError(f"unknown config key {key!r} for {sp.prog}")
        if action.nargs == 0:  # a boolean flag
            if val.lower() not in _BOOLS:
                raise ValueError(f"config key {key}: not a boolean: {val!r}")
            val = _BOOLS[val.lower()]
        else:
            val = getattr(sp.parse_args([f"{action.option_strings[0]}={val}"]), key)
        sp.set_defaults(**{key: val})


def _parse_data(spec: str) -> decay.DataTriple:
    """Parse 'u0:TYPE[:SCALE[:AMP]],u1:...,u2:...' into three profiles."""
    from . import decay
    kinds = {
        "gaussian": decay.ProfileKind.GAUSSIAN,
        "mfgaussian": decay.ProfileKind.MOMENT_FREE_GAUSSIAN,
        "momentfree": decay.ProfileKind.MOMENT_FREE_GAUSSIAN,
        "zero": None,
    }
    profiles: dict[str, decay.FrequencyProfile] = {}
    for chunk in spec.split(","):
        parts = chunk.strip().split(":")
        if len(parts) < 2:
            raise ValueError(f"bad data component {chunk!r}; expected name:type[:scale[:amp]]")
        name, kind_s = parts[0].strip().lower(), parts[1].strip().lower()
        if name not in ("u0", "u1", "u2"):
            raise ValueError(f"unknown data component {name!r}")
        if kind_s not in kinds:
            raise ValueError(f"unknown profile type {kind_s!r} (choose from {sorted(kinds)})")
        if kind_s == "zero":
            profiles[name] = decay.FrequencyProfile.zero()
            continue
        scale = float(parts[2]) if len(parts) > 2 else 1.0
        amp = float(parts[3]) if len(parts) > 3 else 1.0
        profiles[name] = decay.FrequencyProfile(kinds[kind_s], scale, amp)
    for name in ("u0", "u1", "u2"):
        profiles.setdefault(name, decay.FrequencyProfile.zero())
    return (profiles["u0"], profiles["u1"], profiles["u2"])


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
    ap = argparse.ArgumentParser(
        prog="mgt",
        description=__doc__,
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

    def command(name, help, *options):
        sp = subs[name] = sub.add_parser(name, help=help)
        sp.add_argument("--tau", type=float, help="relaxation time, 0 < tau < beta (required)")
        sp.add_argument("--beta", type=float, help="damping coefficient (required)")
        opt(sp, "c", 1.0, "wave speed, folded into the damping as beta -> c^2 beta; "
                          "frequencies and times are not rescaled")
        sp.add_argument("--config", help="flat key = value file whose values become the "
                                         "defaults of the options they name")
        opt(sp, "out", "-", "output path, - for stdout")
        for option in options:
            opt(sp, *option)
        return sp

    def grid(v, what, vmin, vmax, count, log):
        return [(f"{v}-min", vmin, f"first {what}"), (f"{v}-max", vmax, f"last {what}"),
                (f"{v}-count", count, f"number of {what}s"),
                (f"{v}-log", log, f"log-spaced {what}s")]

    dim_j = [("dim", 3, "space dimension"), ("j", 0, "derivative order")]
    data = ("data", "u0:gaussian:1:1,u1:zero,u2:zero",
            "u0:TYPE:SCALE:AMP,u1:...,u2:... with types gaussian, mfgaussian, zero")
    command("classify", "regime, thresholds, theorem exponents", *dim_j,
            ("all-bounds", False, "print every applicable bound, not only the best one"))
    command("atlas", "branch-continuous eigenvalue table (CSV)",
            *grid("k", "frequency", 0.0, 5.0, 201, False))
    command("mode", "single-mode trajectory with energy columns (CSV)",
            ("k", 1.0, "frequency magnitude"), *grid("t", "time", 0.0, 10.0, 101, False), data)
    sp = command("decay", "Sobolev-norm decay curve and bound verdict",
                 *dim_j, *grid("t", "time", 1e2, 1e4, 25, True), data,
                 ("quad-tol", 1e-10, "quadrature tolerance in (0, 1)"),
                 ("v-norm", False, "measure the energy-variable vector norm instead of the "
                                   "solution norm"))
    opt(sp, "format", "csv", "csv: the curve, then its JSON summary; json: one document",
        choices=("csv", "json"))
    command("verify", "run the full numerical invariant suite; gronwall_margin (as its "
                      "first pair) and theorem_bounds use tau, beta (0.1, 1 unless tau, beta "
                      "or c is set), the others their own draws or fixed cases",
            ("quick", False, "shrink sample counts 10x"))
    return ap, subs


def _model_params(args) -> params.ModelParams:
    if args.tau is None or args.beta is None:
        raise ValueError("both --tau and --beta are required")
    if not (args.c > 0.0 and math.isfinite(args.c)):
        raise ValueError(f"wave speed must be positive and finite, got {args.c}")
    # general wave speed folds into the damping coefficient
    return params.validate(args.tau, args.c * args.c * args.beta)


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
            "triple real root at |xi| = sqrt(m1) = sqrt(m2), conjugate pair elsewhere",
        params.Regime.SUPER_CRITICAL:
            "conjugate pair for all |xi| > 0",
    }[reg]
    lines.append(f"regime: {reg.value}; {regime_note}")
    lines.append(f"C1 = {_fmt(thr.c1)}")
    lines.append(f"C2 = {_fmt(thr.c2)}")
    if thr.m1 is None:
        lines.append("m1 = absent")
        lines.append("m2 = absent")
    else:
        lines.append(f"m1 = {_fmt(thr.m1)} (sqrt(m1) = {_fmt(math.sqrt(thr.m1))})")
        lines.append(f"m2 = {_fmt(thr.m2)} (sqrt(m2) = {_fmt(math.sqrt(thr.m2))})")
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
    k = args.k
    data = _parse_data(args.data)
    ts = _make_grid(args.t_min, args.t_max, args.t_count, args.t_log, "time")

    init = mode_solver.ModeState(
        u_hat=complex(data[0]([k])[0]), v_hat=complex(data[1]([k])[0]),
        w_hat=complex(data[2]([k])[0]), k=k)
    weights = lyapunov.default_weights(p)
    state = mode_solver.solve_mode(p, k, init, ts)
    vsq = mode_solver.v_vector(p, state).norm_sq
    f = lyapunov.functionals(p, state, weights)
    _write_csv(args, p, "t,re_u,im_u,v_sq,energy,lyap",
               zip(ts, state.u_hat.real, state.u_hat.imag, vsq, f.energy, f.lyap))
    return EXIT_OK


def cmd_decay(args) -> int:
    p = _model_params(args)
    import json
    from . import decay
    if not (0.0 < args.quad_tol < 1.0):
        raise ValueError(f"quad_tol must lie in (0, 1), got {args.quad_tol}")
    data = _parse_data(args.data)
    ts = _make_grid(args.t_min, args.t_max, args.t_count, args.t_log, "time")

    curve = decay.decay_curve(p, data, args.dim, args.j, ts, args.quad_tol, v_norm=args.v_norm)
    summary = decay.decay_curve_summary(curve)

    within, c_early = decay.bound_verdict(curve, curve.bound_exponent, 10.0 * args.quad_tol)
    summary["bound_constant_early_window"] = c_early
    summary["verdict"] = "WITHIN_BOUND" if within else "VIOLATION"

    rows = decay.decay_curve_rows(curve)
    if args.format == "json":
        summary["rows"] = [{"t": t, "norm": v, "bound_value": b} for t, v, b in rows]
        _write_output(args.out, json.dumps(summary, indent=2, sort_keys=True) + "\n")
        return EXIT_OK

    _write_csv(args, p, "t,norm,bound_value", rows)
    _write_output("-" if args.out == "-" else args.out + ".json",
                  json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    # the suite's own point unless a model parameter is set
    given = (args.tau, args.beta, args.c) != (None, None, 1.0)
    p = _model_params(args) if given else params.validate(0.1, 1.0)
    import numpy as np
    from . import verify
    div = 10 if args.quick else 1
    rng = np.random.default_rng(20240817)

    suites = [
        ("spectrum_sweep", lambda: verify._suite_spectrum(rng, max(100, 10000 // div))),
        ("oracle_equivalence", lambda: verify._suite_oracle(rng, max(5, 200 // div))),
        ("energy_identity", lambda: verify._suite_energy(rng, max(5, 50 // div))),
        ("gronwall_margin", lambda: verify._suite_gronwall(p, rng, max(2, 10 // div))),
        ("integral_lemmas", lambda: verify._suite_lemmas(args.quick)),
        ("theorem_bounds", lambda: verify._suite_theorem_bounds(p, args.quick)),
    ]
    lines = [f"mgt-spectral {__version__} verify "
             f"(tau={_fmt(p.tau)}, beta={_fmt(p.beta)}, quick={args.quick})"]
    all_ok = True
    for name, fn in suites:
        try:
            ok, detail = fn()
        except MGTError as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        all_ok &= ok
        lines.append(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    lines.append("verify: " + ("all suites passed" if all_ok else "FAILURES detected"))
    _write_output(args.out, "\n".join(lines) + "\n")
    return EXIT_OK if all_ok else EXIT_VERIFY


# ---------------------------------------------------------------------------

_COMMANDS = {
    "classify": cmd_classify,
    "atlas": cmd_atlas,
    "mode": cmd_mode,
    "decay": cmd_decay,
    "verify": cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser, subs = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            _apply_config(subs[args.command], _load_config(args.config))
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
