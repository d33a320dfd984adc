"""Import hygiene: the library and its scalar CLI commands never load scipy.

scipy is needed only by the DOP853 oracle (`propagate_numeric`, `mgt verify`)
and by the N + 2j <= 2 tail bound; every other `mgt` invocation must not pay
its import time.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import contextlib, io, sys
import mgt_spectral, mgt_spectral.cli
point = ["--tau", "0.1", "--beta", "1"]
for argv in (["classify", *point],
             ["atlas", *point, "--k-count", "50"],
             ["mode", *point, "--k", "1.5", "--t-count", "11"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert mgt_spectral.cli.main(argv) == 0, argv
print(sorted(name for name in sys.modules if name.startswith("scipy")))
"""


def test_import_and_scalar_commands_load_no_scipy():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip().splitlines()[-1] == "[]"
