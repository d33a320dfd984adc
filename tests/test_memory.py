"""Memory guard: a large-t decay curve keeps its integrand calls small.

At t = 1e4 in the near-conservative band the width-capped quadrature put
several hundred thousand nodes into the first partition of a norm;
evaluated in one integrand call they held about 150 MB of temporaries, and
in blocks of _BLOCK_NODES about 13 MB.  Beyond the window [0, 2 pi / t] the
norm is now integrated as an envelope plus Levin-integrated harmonics of the
phase, with a few hundred nodes whatever t is.
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
