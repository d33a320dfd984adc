"""Command-line front end: classification, atlases, modes, decay curves, verify.

Subcommands
-----------
classify   regime, Cardano thresholds, and theorem exponents for (tau, beta)
atlas      branch-continuous eigenvalue table over a frequency grid (CSV)
mode       one mode's trajectory with energy and Lyapunov columns (CSV)
decay      Sobolev-norm decay curve with fitted slope and bound verdict
verify     the full numerical invariant suite (exit 0 iff everything passes)

Exit codes: 0 ok, 1 verification failure, 2 bad input, 3 I/O failure,
4 numerical failure.  Flags override config-file values, which override
defaults; config files are flat `key = value` lines (keys match the long
flag names, `#` starts a comment).
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys

import numpy as np

from . import __version__, decay, lyapunov, mode_solver, params, spectrum
from .errors import (MGTError, NonDissipative, NonFinite, GridError, InvalidFrequency,
                     QuadratureFailure, StepFailure, NonPositiveMargin, ToleranceFailure,
                     DegenerateFit, EmptyInput, IllConditioned)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_BAD_INPUT = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4

_BAD_INPUT_ERRORS = (NonDissipative, NonFinite, GridError, InvalidFrequency,
                     EmptyInput, ValueError)
_NUMERICAL_ERRORS = (QuadratureFailure, StepFailure, NonPositiveMargin,
                     ToleranceFailure, DegenerateFit, IllConditioned)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _header_lines(command: str, opts: dict) -> list[str]:
    fields = " ".join(f"{k}={v}" for k, v in sorted(opts.items()))
    return [f"# mgt-spectral {__version__} {command}", f"# {fields}"]


def _write_output(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise _IOFail(str(exc)) from exc


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


def _resolve(args: argparse.Namespace, config: dict[str, str], key: str,
             default, cast):
    val = getattr(args, key, None)
    if val is not None:
        return val
    if key in config:
        try:
            return cast(config[key])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"config key {key}: {exc}") from exc
    return default


def _parse_bool(s: str) -> bool:
    if s.lower() in ("1", "true", "yes", "on"):
        return True
    if s.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


_PROFILE_KINDS = {
    "gaussian": decay.ProfileKind.GAUSSIAN,
    "mfgaussian": decay.ProfileKind.MOMENT_FREE_GAUSSIAN,
    "momentfree": decay.ProfileKind.MOMENT_FREE_GAUSSIAN,
    "zero": None,
}


def _parse_data(spec: str) -> decay.DataTriple:
    """Parse 'u0:TYPE[:SCALE[:AMP]],u1:...,u2:...' into three profiles."""
    profiles: dict[str, decay.FrequencyProfile] = {}
    for chunk in spec.split(","):
        parts = chunk.strip().split(":")
        if len(parts) < 2:
            raise ValueError(f"bad data component {chunk!r}; expected name:type[:scale[:amp]]")
        name, kind_s = parts[0].strip().lower(), parts[1].strip().lower()
        if name not in ("u0", "u1", "u2"):
            raise ValueError(f"unknown data component {name!r}")
        if kind_s not in _PROFILE_KINDS:
            raise ValueError(f"unknown profile type {kind_s!r} "
                             f"(choose from {sorted(_PROFILE_KINDS)})")
        if kind_s == "zero":
            profiles[name] = decay.FrequencyProfile.zero()
            continue
        scale = float(parts[2]) if len(parts) > 2 else 1.0
        amp = float(parts[3]) if len(parts) > 3 else 1.0
        profiles[name] = decay.FrequencyProfile(_PROFILE_KINDS[kind_s], scale, amp)
    for name in ("u0", "u1", "u2"):
        profiles.setdefault(name, decay.FrequencyProfile.zero())
    return (profiles["u0"], profiles["u1"], profiles["u2"])


def _make_grid(vmin: float, vmax: float, count: int, log: bool, what: str) -> np.ndarray:
    if count < 1 or not (math.isfinite(vmin) and math.isfinite(vmax)) or vmax < vmin:
        raise ValueError(f"bad {what} grid: min={vmin} max={vmax} count={count}")
    if count == 1:
        return np.array([vmin])
    if log:
        if vmin <= 0.0:
            raise ValueError(f"log-spaced {what} grid needs min > 0, got {vmin}")
        return np.geomspace(vmin, vmax, count)
    return np.linspace(vmin, vmax, count)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mgt",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--version", action="version", version=f"mgt-spectral {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--tau", type=float, default=None, help="relaxation time (0 < tau < beta)")
        sp.add_argument("--beta", type=float, default=None, help="damping coefficient")
        sp.add_argument("--c", type=float, default=None,
                        help="wave speed (default 1); folded into the damping as beta -> c^2 beta, "
                             "frequencies and times are not rescaled")
        sp.add_argument("--config", type=str, default=None,
                        help="flat key=value config file; flags take precedence")
        sp.add_argument("--out", type=str, default=None, help="output path (default stdout)")

    sp = sub.add_parser("classify", help="regime, thresholds, theorem exponents")
    common(sp)
    sp.add_argument("--dim", type=int, default=None, help="space dimension (default 3)")
    sp.add_argument("--j", type=int, default=None, help="derivative order (default 0)")
    sp.add_argument("--all-bounds", action="store_true",
                    help="print every applicable bound, not only the best one")

    sp = sub.add_parser("atlas", help="branch-continuous eigenvalue table (CSV)")
    common(sp)
    sp.add_argument("--k-min", type=float, default=None)
    sp.add_argument("--k-max", type=float, default=None)
    sp.add_argument("--k-count", type=int, default=None)
    sp.add_argument("--k-log", action="store_true", default=None)

    sp = sub.add_parser("mode", help="single-mode trajectory with energy columns (CSV)")
    common(sp)
    sp.add_argument("--k", type=float, default=None, help="frequency magnitude")
    sp.add_argument("--t-min", type=float, default=None)
    sp.add_argument("--t-max", type=float, default=None)
    sp.add_argument("--t-count", type=int, default=None)
    sp.add_argument("--t-log", action="store_true", default=None)
    sp.add_argument("--data", type=str, default=None,
                    help="u0:TYPE:SCALE:AMP,u1:...,u2:... (types: gaussian, mfgaussian, zero)")

    sp = sub.add_parser("decay", help="Sobolev-norm decay curve and bound verdict")
    common(sp)
    sp.add_argument("--dim", type=int, default=None)
    sp.add_argument("--j", type=int, default=None)
    sp.add_argument("--t-min", type=float, default=None)
    sp.add_argument("--t-max", type=float, default=None)
    sp.add_argument("--t-count", type=int, default=None)
    sp.add_argument("--t-log", action="store_true", default=None)
    sp.add_argument("--data", type=str, default=None)
    sp.add_argument("--quad-tol", type=float, default=None)
    sp.add_argument("--v-norm", action="store_true",
                    help="measure the energy-variable vector norm instead of the solution norm")
    sp.add_argument("--format", choices=("csv", "json"), default=None)

    sp = sub.add_parser("verify", help="run the full numerical invariant suite")
    common(sp)
    sp.add_argument("--quick", action="store_true", help="shrink sample counts 10x")

    return ap


def _model_params(args, config) -> params.ModelParams:
    tau = _resolve(args, config, "tau", None, float)
    beta = _resolve(args, config, "beta", None, float)
    if tau is None or beta is None:
        raise ValueError("both --tau and --beta are required")
    c = _resolve(args, config, "c", 1.0, float)
    if not (c > 0.0 and math.isfinite(c)):
        raise ValueError(f"wave speed must be positive and finite, got {c}")
    # general wave speed folds into the damping coefficient
    return params.validate(tau, c * c * beta)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_classify(args, config) -> int:
    p = _model_params(args, config)
    dim = _resolve(args, config, "dim", 3, int)
    j = _resolve(args, config, "j", 0, int)
    thr = params.cardano_thresholds(p)
    reg = params.regime(p)
    lines = _header_lines("classify", {"tau": _fmt(p.tau), "beta": _fmt(p.beta)})
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
    for dc in (params.DataClass.L1, params.DataClass.L1_WEIGHTED):
        rates = params.theorem_rates(p, dim, j, dc)
        lines.append(f"decay bound [{dc.value}, dim={dim}, j={j}]: "
                     f"(1+t)^{_fmt(rates.poly_exponent)} + exp(-{_fmt(rates.exp_rate)} t)")
        if args.all_bounds:
            for e in params.applicable_exponents(dim, j, dc):
                lines.append(f"  applicable exponent [{dc.value}]: {_fmt(e)}")
    _write_output(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_atlas(args, config) -> int:
    p = _model_params(args, config)
    kmin = _resolve(args, config, "k_min", 0.0, float)
    kmax = _resolve(args, config, "k_max", 5.0, float)
    kcount = _resolve(args, config, "k_count", 201, int)
    klog = _resolve(args, config, "k_log", False, _parse_bool)
    grid = _make_grid(kmin, kmax, kcount, klog, "frequency")
    points = spectrum.atlas(p, grid)
    buf = io.StringIO()
    for line in _header_lines("atlas", {"tau": _fmt(p.tau), "beta": _fmt(p.beta),
                                        "k_min": _fmt(kmin), "k_max": _fmt(kmax),
                                        "k_count": kcount, "k_log": klog}):
        buf.write(line + "\n")
    buf.write("k,re_l1,im_l1,re_l2,im_l2,re_l3,im_l3,pattern\n")
    for row in spectrum.atlas_rows(points):
        buf.write(",".join(_fmt(x) for x in row[:7]) + f",{row[7]}\n")
    _write_output(args.out, buf.getvalue())
    return EXIT_OK


def cmd_mode(args, config) -> int:
    p = _model_params(args, config)
    k = _resolve(args, config, "k", 1.0, float)
    tmin = _resolve(args, config, "t_min", 0.0, float)
    tmax = _resolve(args, config, "t_max", 10.0, float)
    tcount = _resolve(args, config, "t_count", 101, int)
    tlog = _resolve(args, config, "t_log", False, _parse_bool)
    data = _parse_data(_resolve(args, config, "data", "u0:gaussian:1:1,u1:zero,u2:zero", str))
    ts = _make_grid(tmin, tmax, tcount, tlog, "time")

    karr = np.array([k])
    init = mode_solver.ModeState(
        u_hat=complex(data[0](karr)[0]), v_hat=complex(data[1](karr)[0]),
        w_hat=complex(data[2](karr)[0]), k=float(k))
    weights = lyapunov.default_weights(p)
    coeffs = mode_solver.mode_coefficients(p, float(k), init)
    us, vs, ws = mode_solver.evaluate_mode(coeffs, float(k), ts, n_derivatives=2)

    buf = io.StringIO()
    for line in _header_lines("mode", {"tau": _fmt(p.tau), "beta": _fmt(p.beta),
                                       "k": _fmt(k), "t_min": _fmt(tmin),
                                       "t_max": _fmt(tmax), "t_count": tcount}):
        buf.write(line + "\n")
    buf.write("t,re_u,im_u,v_sq,energy,lyap\n")
    for t, u, v, w in zip(ts, us, vs, ws):
        state = mode_solver.ModeState(u_hat=u, v_hat=v, w_hat=w, k=float(k))
        vv = mode_solver.v_vector(p, state)
        f = lyapunov.functionals(p, state, weights)
        buf.write(",".join(_fmt(x) for x in
                           (t, u.real, u.imag, vv.norm_sq, f.energy, f.lyap)) + "\n")
    _write_output(args.out, buf.getvalue())
    return EXIT_OK


def cmd_decay(args, config) -> int:
    p = _model_params(args, config)
    dim = _resolve(args, config, "dim", 3, int)
    j = _resolve(args, config, "j", 0, int)
    tmin = _resolve(args, config, "t_min", 1e2, float)
    tmax = _resolve(args, config, "t_max", 1e4, float)
    tcount = _resolve(args, config, "t_count", 25, int)
    tlog = _resolve(args, config, "t_log", True, _parse_bool)
    quad_tol = _resolve(args, config, "quad_tol", 1e-10, float)
    if not (0.0 < quad_tol < 1.0):
        raise ValueError(f"quad_tol must lie in (0, 1), got {quad_tol}")
    fmt = _resolve(args, config, "format", "csv", str)
    data = _parse_data(_resolve(args, config, "data", "u0:gaussian:1:1,u1:zero,u2:zero", str))
    ts = _make_grid(tmin, tmax, tcount, tlog, "time")

    curve = decay.decay_curve(p, data, dim, j, ts, quad_tol, v_norm=bool(args.v_norm))
    summary = decay.decay_curve_summary(curve)

    within, c_early = decay.bound_verdict(curve, curve.bound_exponent, 10.0 * quad_tol)
    summary["bound_constant_early_window"] = c_early
    summary["verdict"] = "WITHIN_BOUND" if within else "VIOLATION"

    rows = decay.decay_curve_rows(curve)
    if fmt == "json":
        summary["rows"] = [{"t": t, "norm": v, "bound_value": b} for t, v, b in rows]
        _write_output(args.out, json.dumps(summary, indent=2, sort_keys=True) + "\n")
        return EXIT_OK

    buf = io.StringIO()
    for line in _header_lines("decay", {"tau": _fmt(p.tau), "beta": _fmt(p.beta),
                                        "dim": dim, "j": j, "quad_tol": _fmt(quad_tol)}):
        buf.write(line + "\n")
    buf.write("t,norm,bound_value\n")
    for t, v, b in rows:
        buf.write(",".join(_fmt(x) for x in (t, v, b)) + "\n")
    _write_output(args.out, buf.getvalue())
    if args.out not in (None, "-"):
        _write_output(args.out + ".json", json.dumps(summary, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------

def _suite_spectrum(p, rng, n) -> tuple[bool, str]:
    taus = rng.uniform(0.01, 1.0, n)
    betas = taus + rng.uniform(0.02, 2.0, n)
    betas = np.minimum(betas, 2.0)
    ok = betas > taus
    taus, betas = taus[ok], betas[ok]
    ks = rng.uniform(0.0, 100.0, taus.size)
    worst_res = worst_vieta = 0.0
    min_axis = math.inf
    for tau, beta, k in zip(taus, betas, ks):
        pk = params.validate(tau, beta)
        lams = np.array(spectrum.eigenvalues(pk, float(k)).lambdas)
        for lam in lams:
            r, s = spectrum.characteristic_residual(pk, lam, float(k))
            worst_res = max(worst_res, r / s)
        k2 = k * k
        vieta = max(
            abs(lams.sum() + 1.0 / tau) / (1.0 / tau),
            abs(lams[0] * lams[1] + lams[0] * lams[2] + lams[1] * lams[2] - beta * k2 / tau)
            / max(1.0, beta * k2 / tau),
            abs(lams.prod() + k2 / tau) / max(1.0, k2 / tau))
        worst_vieta = max(worst_vieta, float(vieta))
        if k > 0:
            min_axis = min(min_axis, float(np.min(np.abs(lams.real))))
    passed = worst_res <= 1e-9 and worst_vieta <= 1e-9 and min_axis > 1e-10
    return passed, (f"n={taus.size} max_residual={worst_res:.2e} "
                    f"max_vieta={worst_vieta:.2e} min_axis_dist={min_axis:.2e}")


def _suite_oracle(p, rng, n) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(n):
        tau = rng.uniform(0.05, 0.9)
        beta = rng.uniform(tau + 0.05, 2.0)
        pp = params.validate(tau, beta)
        k = rng.uniform(0.0, 50.0)
        init = mode_solver.ModeState(*(rng.standard_normal(3) + 1j * rng.standard_normal(3)),
                                     k=float(k))
        t = rng.uniform(0.0, 20.0)
        a = mode_solver.solve_mode(pp, float(k), init, float(t))
        b = mode_solver.propagate_numeric(pp, float(k), init, float(t), tol=1e-10)
        err = np.linalg.norm(a.as_array() - b.as_array()) / (1.0 + init.norm())
        worst = max(worst, float(err))
    return worst <= 1e-6, f"n={n} max_mismatch={worst:.2e}"


def _suite_energy(p, rng, n) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(n):
        tau = rng.uniform(0.05, 0.9)
        beta = rng.uniform(tau + 0.05, 2.0)
        pp = params.validate(tau, beta)
        k = rng.uniform(0.0, 20.0)
        init = mode_solver.ModeState(*(rng.standard_normal(3) + 1j * rng.standard_normal(3)),
                                     k=float(k))
        ts = rng.uniform(0.0, 10.0, 10)
        res = lyapunov.energy_dissipation_residual(pp, float(k), init, ts)
        scale = lyapunov.dissipation_scale(pp, float(k), init, ts)
        worst = max(worst, float((res / scale).max()))
    return worst <= 1e-9, f"n={n} max_identity_residual={worst:.2e}"


def _suite_gronwall(p, rng, n_pairs) -> tuple[bool, str]:
    pairs = [p] + [params.validate(t, b) for t, b in
                   zip(rng.uniform(0.02, 0.9, n_pairs), rng.uniform(1.0, 2.0, n_pairs))
                   if t < b]
    min_g5 = math.inf
    worst_growth = 0.0
    ts = np.linspace(0.0, 20.0, 81)
    for pp in pairs:
        w = lyapunov.default_weights(pp)
        min_g5 = min(min_g5, w.gamma5)
        for k in (0.3, 1.0, 5.0):
            init = mode_solver.ModeState(*(rng.standard_normal(3) + 1j * rng.standard_normal(3)),
                                         k=k)
            coeffs = mode_solver.mode_coefficients(pp, k, init)
            r = float(lyapunov.rho(k))
            prev = None
            for t, u, v, ww in zip(ts, *mode_solver.evaluate_mode(coeffs, k, ts, 2)):
                st = mode_solver.ModeState(u, v, ww, k)
                val = lyapunov.functionals(pp, st, w).lyap * math.exp(w.gamma5 * r * float(t))
                if prev is not None and prev > 0:
                    worst_growth = max(worst_growth, (val - prev) / prev)
                prev = val
    passed = min_g5 > 0.0 and worst_growth <= 1e-8
    return passed, f"pairs={len(pairs)} min_gamma5={min_g5:.3e} max_growth={worst_growth:.2e}"


def _suite_lemmas(quick: bool) -> tuple[bool, str]:
    combos = [(1, 0), (3, 0)] if quick else [(1, 0), (2, 0), (3, 0), (1, 2), (2, 1)]
    tgrid = np.geomspace(1e-2, 1e4, 12)
    tgrid = np.concatenate([[0.0], tgrid])
    worst = 0.0
    for dim, j in combos:
        rep = decay.integral_lemma_check(dim, j, 1.0, tgrid)
        for s in rep.series.values():
            if not s.stable:
                return False, f"unstable ratio in {s.name} at dim={dim}, j={j}"
            worst = max(worst, s.max_ratio)
    return True, f"combos={len(combos)} max_ratio={worst:.3f}"


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


def cmd_verify(args, config) -> int:
    p = _model_params(args, config) if (
        _resolve(args, config, "tau", None, float) is not None) else params.validate(0.1, 1.0)
    quick = bool(args.quick) or _parse_bool(config.get("quick", "false"))
    div = 10 if quick else 1
    rng = np.random.default_rng(20240817)

    suites = [
        ("spectrum_sweep", lambda: _suite_spectrum(p, rng, max(100, 10000 // div))),
        ("oracle_equivalence", lambda: _suite_oracle(p, rng, max(5, 200 // div))),
        ("energy_identity", lambda: _suite_energy(p, rng, max(5, 50 // div))),
        ("gronwall_margin", lambda: _suite_gronwall(p, rng, max(2, 10 // div))),
        ("integral_lemmas", lambda: _suite_lemmas(quick)),
        ("theorem_bounds", lambda: _suite_theorem_bounds(p, quick)),
    ]
    lines = [f"mgt-spectral {__version__} verify "
             f"(tau={_fmt(p.tau)}, beta={_fmt(p.beta)}, quick={quick})"]
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config) if args.config else {}
        return _COMMANDS[args.command](args, config)
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
