"""Seeded inputs, operations and checks of the three benchmark workloads.

A workload is a fixed cycle of operations whose parameters are drawn from the
seed. Every cycle has the same operations in the same order for every seed,
so the seed moves the draws and never the operation counts. Draws of one band
are stratified over blocks of eight cycles (a Latin hypercube per block), so a
run of a few cycles already spreads over the whole band and two seeds see
similar costs.

decay_curves  one op = one decay.decay_curve call. The four norm cases meet
              four tau/beta bands in a Latin square, four ops per cycle.
verify_quick  one op = one in-process `mgt verify --quick`, one per band.
cli_scan      one op = one in-process `mgt classify`, `atlas` or `mode` call,
              on three parameter draws per cycle.

The census (`census`) holds the inputs on which the program is known to fail
today. It runs once per run after the timed cycles; its failures are reported
by cause but are neither timed nor counted against the workload.
"""

from __future__ import annotations

import contextlib
import io
import math
import zlib
from dataclasses import dataclass, field

import numpy as np

import checks

WORKLOADS = ("decay_curves", "verify_quick", "cli_scan")

#: tau/beta bands: sub-critical, the critical ratio 1/9 approached from either
#: side, super-critical, and close to the conservative limit tau = beta.
BANDS = ("sub", "near_critical", "super", "near_conservative")
#: The equation is invariant under (tau, beta, t, x) -> (tau, beta, t, x) / s,
#: so beta only sets the time scale; a narrow range keeps costs comparable
#: across seeds. With it, beta - tau >= 0.1 in the near-conservative band.
BETA_RANGE = (1.0, 1.25)
STRATA = 8
CENSUS_DRAWS = {"decay_curves": 0, "verify_quick": 1, "cli_scan": 8}

DECAY_TIMES = np.geomspace(1e2, 1e4, 7)
DECAY_QUAD_TOL = 1e-10          # the `mgt decay` default
ATLAS_POINTS = 400
MODE_TIMES = np.linspace(0.0, 10.0, 101)


@dataclass(frozen=True)
class DecayCase:
    data: tuple[str, str, str]  # profile of u0, u1, u2: "g", "mf" or "0"
    dim: int
    j: int
    v_norm: bool
    exponent: float             # theorem exponent the curve is bounded by
    headline: bool = False


#: The norm cases of `mgt verify`'s theorem-bounds suite and of the README.
DECAY_CASES = {
    "dim3_j0": DecayCase(("0", "0", "g"), 3, 0, False, -0.25, headline=True),
    "dim1_u1": DecayCase(("0", "g", "0"), 1, 0, False, 0.75),
    "weighted_dim1": DecayCase(("g", "mf", "mf"), 1, 0, False, -0.25),
    "vnorm_dim3_j1": DecayCase(("g", "g", "g"), 3, 1, True, -1.25),
}


@dataclass(frozen=True)
class Op:
    kind: str                   # a DECAY_CASES key, "verify", "classify", "atlas", "mode"
    band: str
    tau: float
    beta: float
    census: bool = False
    argv: tuple[str, ...] = ()
    extra: dict = field(default_factory=dict, compare=False)


def _id(name: str) -> int:
    return zlib.crc32(name.encode())


def _unit(seed: int, workload: str, band: str, cycle: int, dims: int) -> list[float]:
    """`dims` uniforms for one cycle; eight consecutive cycles hit every stratum.

    The first cycle of a block takes the top stratum of every coordinate. In
    the near-conservative band that is the heaviest point (largest beta and
    tau/beta, most quadrature nodes), so every run contains it and the peak
    memory of runs with different seeds is comparable.
    """
    block, i = divmod(cycle, STRATA)
    rng = np.random.default_rng([seed, _id(workload), _id(band), block])
    perms = [np.roll(p, -int(np.argmax(p))) for p in
             (rng.permutation(STRATA) for _ in range(dims))]
    jitter = rng.random((dims, STRATA))
    return [float(perms[d][i] + jitter[d, i]) / STRATA for d in range(dims)]


def _loguniform(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _params(band: str, u: list[float]) -> tuple[float, float]:
    """(tau, beta) of a band from three uniforms."""
    beta = _loguniform(u[0], *BETA_RANGE)
    if band == "near_critical":
        rel = _loguniform(u[1], 1e-13, 1e-5)
        ratio = (1.0 + (rel if u[2] < 0.5 else -rel)) / 9.0
    else:
        lo, hi = {"sub": (0.02, 0.09), "super": (0.15, 0.6),
                  "near_conservative": (0.85, 0.9)}[band]
        ratio = lo + u[1] * (hi - lo)
    return ratio * beta, beta


def _args(tau: float, beta: float) -> tuple[str, ...]:
    return ("--tau", repr(tau), "--beta", repr(beta))


# ---------------------------------------------------------------------------
# cycles
# ---------------------------------------------------------------------------

def cycle(workload: str, seed: int, c: int) -> list[Op]:
    """The operations of cycle c of a workload under a seed."""
    if workload == "decay_curves":
        names = list(DECAY_CASES)
        ops = []
        for b, band in enumerate(BANDS):
            tau, beta = _params(band, _unit(seed, workload, band, c, 3))
            ops.append(Op(names[(c + b) % len(names)], band, tau, beta))
        return ops
    if workload == "verify_quick":
        ops = []
        for band in BANDS:
            tau, beta = _params(band, _unit(seed, workload, band, c, 3))
            ops.append(Op("verify", band, tau, beta,
                          argv=("verify", "--quick") + _args(tau, beta)))
        return ops
    if workload == "cli_scan":
        ops = []
        for band in ("sub", "super", "near_conservative"):
            ops += _cli_draw(band, _unit(seed, workload, band, c, 9), census=False)
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def census(workload: str, seed: int) -> list[Op]:
    """Inputs in windows where the program is known to fail today.

    cli_scan: k^2 within 1e-14 to 1e-6 (relative) of m1 or m2, or tau/beta
    within 1e-13 to 1e-5 of 1/9 with k at the near-triple root; scalar
    `mode` raises IllConditioned or loses accuracy there.
    verify_quick: 3 <= t_min (beta - tau) <= 3.5, where the theorem-bounds
    suite already applies its early-window bound rule while the N=3 curve is
    still in its transient, and reports FAIL (with beta in BETA_RANGE; the
    window reaches further for smaller beta).
    """
    ops = []
    for i in range(CENSUS_DRAWS[workload]):
        if workload == "verify_quick":
            u = _unit(seed, workload, "census", i, 2)
            beta = _loguniform(u[0], *BETA_RANGE)
            tau = beta - (0.03 + 0.005 * u[1])
            ops.append(Op("verify", "census", tau, beta, census=True,
                          argv=("verify", "--quick") + _args(tau, beta)))
        else:
            band = ("m_window", "critical_window")[i % 2]
            ops += _cli_draw(band, _unit(seed, workload, band, i // 2, 9), census=True)
    return ops


def _cli_draw(band: str, u: list[float], census: bool) -> list[Op]:
    """classify, atlas and mode on one parameter draw."""
    if band == "m_window":
        tau, beta = _params("sub", u)
    elif band == "critical_window":
        tau, beta = _params("near_critical", u)
    else:
        tau, beta = _params(band, u)
    thr = checks.exact_thresholds(tau, beta)
    if census:
        # k^2 within 1e-14 to 1e-6 (relative) of m1 or m2, or of the merged
        # threshold where the critical ratio puts the near-triple root
        if thr is None:
            t, b = tau, beta
            m = (18 * t * b + b * b - 27 * t * t) / (8 * t * b**3)
        else:
            m = thr[0] if u[3] < 0.5 else thr[1]
        rel = _loguniform(u[4], 1e-14, 1e-6)
        k = math.sqrt(m * (1.0 + (rel if u[5] < 0.5 else -rel)))
    else:
        k = _loguniform(u[4], 0.2, 5.0)
    if thr is None:
        kmin, kmax = 0.0, 4.0 / math.sqrt(tau * beta)
    else:
        kmin, kmax = 0.5 * math.sqrt(thr[0]), 1.5 * math.sqrt(thr[1])
    if census:
        # put grid node 200 on the confluent frequency
        h = (kmax - kmin) / (ATLAS_POINTS - 1)
        kmin = max(0.0, k - 200 * h)
        kmax = kmin + (ATLAS_POINTS - 1) * h
    grid = np.linspace(kmin, kmax, ATLAS_POINTS)

    scales = [0.5 + 1.5 * x for x in u[6:9]]
    amps = [0.5 + x for x in u[6:9][::-1]]
    data = ",".join(f"{name}:{kind}:{s!r}:{a!r}" for name, kind, s, a in
                    zip(("u0", "u1", "u2"), ("gaussian", "mfgaussian", "gaussian"),
                        scales, amps))
    y0 = np.array([amps[0] * math.exp(-0.5 * (scales[0] * k) ** 2),
                   amps[1] * scales[1] * k * math.exp(-0.5 * (scales[1] * k) ** 2),
                   amps[2] * math.exp(-0.5 * (scales[2] * k) ** 2)])
    base = _args(tau, beta)
    return [
        Op("classify", band, tau, beta, census, ("classify",) + base),
        Op("atlas", band, tau, beta, census,
           ("atlas",) + base + ("--k-min", repr(kmin), "--k-max", repr(kmax),
                                "--k-count", str(ATLAS_POINTS)),
           extra={"grid": grid}),
        Op("mode", band, tau, beta, census,
           ("mode",) + base + ("--k", repr(k), "--t-min", "0", "--t-max", "10",
                               "--t-count", str(MODE_TIMES.size), "--data", data),
           extra={"k": k, "y0": y0}),
    ]


# ---------------------------------------------------------------------------
# execution and checks
# ---------------------------------------------------------------------------

@dataclass
class CliOutput:
    rc: int
    out: str
    err: str


def _profiles(mgt_decay, spec: tuple[str, str, str]):
    make = {"g": mgt_decay.FrequencyProfile.gaussian,
            "mf": mgt_decay.FrequencyProfile.moment_free,
            "0": mgt_decay.FrequencyProfile.zero}
    return tuple(make[s]() for s in spec)


def execute(op: Op):
    """Run one operation through the program's public entry points."""
    from mgt_spectral import cli, decay, params

    if op.kind in DECAY_CASES:
        case = DECAY_CASES[op.kind]
        p = params.validate(op.tau, op.beta)
        return decay.decay_curve(p, _profiles(decay, case.data), case.dim, case.j,
                                 DECAY_TIMES, DECAY_QUAD_TOL, v_norm=case.v_norm)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(op.argv))
    return CliOutput(rc, out.getvalue(), err.getvalue())


def check(op: Op, result) -> str | None:
    """Failure cause of an operation's result, or None when it is correct."""
    if op.kind in DECAY_CASES:
        case = DECAY_CASES[op.kind]
        return checks.check_decay_curve(
            op.tau, op.beta, DECAY_TIMES, DECAY_QUAD_TOL, case.exponent, case.headline,
            result.times, result.values, result.bound_exponent, result.fitted_slope)
    if op.kind == "verify":
        return checks.check_verify(op.tau, op.beta, result.rc, result.out)
    if result.rc != 0:
        return f"{op.kind}:exit{result.rc}"
    if op.kind == "classify":
        return checks.check_classify(op.tau, op.beta, result.out)
    if op.kind == "atlas":
        return checks.check_atlas(op.tau, op.beta, op.extra["grid"], result.out)
    return checks.check_mode(op.tau, op.beta, op.extra["k"], op.extra["y0"],
                             MODE_TIMES, result.out)
