"""The package calls no numpy sort kernel.

The quadrature driver bisects every panel over its share of the target by
one boolean mask and orders nothing, and the root triples are ordered by a
compare network (spectrum._sort3), so that none of numpy's sort, partition
or unique kernels is paged in.  A child
interpreter replaces numpy's sort family by functions that record the call
and raise, then runs the norm path, the integral lemmas, the spectrum and
`mgt verify --quick`; the ndarray methods, which no patch reaches, are
ruled out by a scan of the source.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SORT_FAMILY = ("sort", "argsort", "unique", "partition", "argpartition", "lexsort")

PROBE = """
import contextlib, io, sys
import numpy as np

called = []

def refuse(name):
    def call(*args, **kwargs):
        called.append(name)
        raise AssertionError(f"numpy.{name} called")
    return call

for name in %r:
    setattr(np, name, refuse(name))

import mgt_spectral as mgt
from mgt_spectral import cli

g, z = mgt.FrequencyProfile.gaussian(), mgt.FrequencyProfile.zero()
p = mgt.validate(0.1, 1.0)
mgt.decay_curve(p, (z, z, g), 3, 0, [0.05, 1.0, 1e2, 1e4], 1e-10)
mgt.decay_curve(mgt.validate(0.965, 1.0), (g, g, g), 3, 1, [1e2, 1e3], 1e-10, v_norm=True)
mgt.sobolev_norm_sq(p, (z, g, z), 1, 0, 10.0, 1e-10)
mgt.region_contributions(p, (z, z, g), 3, 0, 10.0)
mgt.integral_lemma_check(3, 0, 0.1, [0.0, 1.0, 1e2])
mgt.eigenvalues(p, 1.7)
mgt.eigenvalues(mgt.validate(1.0 / 9.0, 1.0), 3.0 ** 0.5)
# the tie grids of tests/test_spectrum.py, where a conjugate pair meets the real axis
mgt.atlas(p, np.linspace(0.0, 5.0, 201))
mgt.atlas(mgt.validate(0.05, 1.3), np.geomspace(1e-6, 1e6, 500))
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(["verify", "--quick"])
print(rc, called)
""" % (SORT_FAMILY,)


def test_no_numpy_sort_function_is_called():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip().splitlines()[-1] == "0 []"


def test_source_calls_no_ndarray_sort_method():
    # np.sort, arr.sort(), arr.argsort() and arr.partition() alike
    pattern = re.compile(r"\.(argsort|partition|sort)\(")
    found = [f"{path.name}:{i}" for path in sorted(SRC.rglob("*.py"))
             for i, line in enumerate(path.read_text().splitlines(), 1) if pattern.search(line)]
    assert not found
