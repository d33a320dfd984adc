"""Memory guard: a large-t decay curve keeps its integrand calls small.

At t = 1e4 in the near-conservative band the width-capped quadrature put
several hundred thousand nodes into the first partition of a norm;
evaluated in one integrand call they held about 150 MB of temporaries, and
in blocks of _BLOCK_NODES about 13 MB.  From k = 0 on, the norm is now
integrated as an envelope plus Levin-integrated harmonics of the phase
wherever r t >= pi, with a few hundred nodes whatever t is.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

resource = pytest.importorskip("resource")

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import resource, sys
import mgt_spectral as mgt
g = mgt.FrequencyProfile.gaussian()
p = mgt.validate(0.9 * 1.25, 1.25)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
mgt.decay_curve(p, (g, g, g), dim=3, j=1, time_grid=[1e4], quad_tol=1e-10, v_norm=True)
grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
# ru_maxrss counts bytes on macOS, KiB elsewhere
print(grown / (2**20 if sys.platform == "darwin" else 2**10))
"""


def test_large_t_decay_curve_peak_memory():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert res.returncode == 0, res.stderr
    grown_mb = float(res.stdout.strip().splitlines()[-1])
    assert grown_mb <= 40.0


BLAS_RSS = """
import sys
from pathlib import Path
import numpy as np
import mgt_spectral as mgt

def blas_rss_kb():
    # Rss of the OpenBLAS library numpy ships (numpy.libs/), summed over its mappings
    total, inside = 0, False
    for line in Path("/proc/self/smaps").read_text().splitlines():
        fields = line.split()
        if fields and "-" in fields[0] and not fields[0].endswith(":"):
            lib = Path(fields[-1]) if len(fields) >= 6 else None
            inside = (lib is not None and "openblas" in lib.name
                      and lib.parent.name.startswith("numpy"))
        elif inside and fields[0] == "Rss:":
            total += int(fields[1])
    return total
"""

BLAS_PROBE = BLAS_RSS + """
# the batched Levin solves of the split pass, complex 17x17 and 9x9 systems
rng = np.random.default_rng(0)
for n in (17, 9):
    m = rng.standard_normal((4, n, n)) + 1j * rng.standard_normal((4, n, n))
    np.linalg.solve(m + 4.0 * n * np.eye(n), rng.standard_normal((4, n, 1)) + 0j)
before = blas_rss_kb()
if before == 0:
    print("no numpy OpenBLAS mapping")
    sys.exit()
g, z = mgt.FrequencyProfile.gaussian(), mgt.FrequencyProfile.zero()
# t = 0.05 takes the centred series of the mode kernel, t >= 1e2 the split pass
mgt.decay_curve(mgt.validate(0.1, 1.0), (z, z, g), 3, 0, [0.05, 1.0, 1e2, 1e3, 1e4], 1e-10)
print(blas_rss_kb() - before)
if "polyfit" in sys.argv:
    np.polyfit(np.arange(6.0), np.arange(6.0) ** 2, 1)
    print(blas_rss_kb() - before)
"""


ORACLE_PROBE = BLAS_RSS + """
before = blas_rss_kb()
if before == 0:
    print("no numpy OpenBLAS mapping")
    sys.exit()
rng = np.random.default_rng(0)
for tau, beta, k, t in ((0.1, 1.0, 0.0, 3.0), (0.999, 1.0, 200.0, 100.0), (0.3, 2.0, 1.7, 0.5)):
    state = mgt.ModeState(*(rng.standard_normal(3) + 1j * rng.standard_normal(3)), k=k)
    mgt.propagate_numeric(mgt.validate(tau, beta), state, np.linspace(0.0, t, 7))
# files under scipy/ or scipy.libs/ (numpy's OpenBLAS is numpy.libs/libscipy_openblas*)
mapped = {Path(line.split()[-1]) for line in Path("/proc/self/maps").read_text().splitlines()}
print(sorted(str(f) for f in mapped if any(d.startswith("scipy") for d in f.parent.parts)))
print(blas_rss_kb() - before)
"""

RESIDUAL_PROBE = BLAS_RSS + """
before = blas_rss_kb()
if before == 0:
    print("no numpy OpenBLAS mapping")
    sys.exit()
rng = np.random.default_rng(0)
for tau, beta, k, t in ((0.1, 1.0, 0.0, 3.0), (0.999, 1.0, 200.0, 100.0), (0.3, 2.0, 1.7, 0.5)):
    state = mgt.ModeState(*(rng.standard_normal(3) + 1j * rng.standard_normal(3)), k=k)
    mgt.ode_residual(mgt.validate(tau, beta), state, t)
print(blas_rss_kb() - before)
"""


def _probe_lines(probe: str, *args: str) -> list[str]:
    if not Path("/proc/self/smaps").exists():
        pytest.skip("needs /proc/self/smaps")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-c", probe, *args], capture_output=True,
                         text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"})
    assert res.returncode == 0, res.stderr
    lines = res.stdout.strip().splitlines()
    if lines == ["no numpy OpenBLAS mapping"]:
        pytest.skip("numpy maps no OpenBLAS library of its own")
    return lines


def _blas_growth_kb(*args: str) -> list[int]:
    return [int(x) for x in _probe_lines(BLAS_PROBE, *args)]


def test_decay_curve_pages_no_blas_beyond_the_levin_solve():
    # np.polyfit (LAPACK dgelsd) paged 988 KB of numpy's OpenBLAS on the first curve
    assert _blas_growth_kb()[0] <= 128


def test_blas_probe_sees_a_least_squares_fit():
    assert _blas_growth_kb("polyfit")[-1] > 400


def test_oracle_maps_no_scipy_and_pages_no_blas():
    # scipy.linalg.expm mapped scipy's own OpenBLAS and expm extensions, and on
    # this probe paged 384 KB more of numpy's OpenBLAS
    libs, grown = _probe_lines(ORACLE_PROBE)[-2:]
    assert libs == "[]"
    assert int(grown) == 0


def test_ode_residual_pages_no_blas():
    # Phi y0 as mode_matrix(p, k) @ y0, a complex matmul, paged 128 KB of numpy's OpenBLAS
    assert int(_probe_lines(RESIDUAL_PROBE)[-1]) == 0
