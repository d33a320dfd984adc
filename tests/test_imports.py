"""Import hygiene: the library and every `mgt` command, `mgt verify` included,
never load scipy, mpmath, sympy or hypothesis (test dependencies only), and
the front door loads no numpy.  Every public name has a reader outside the
tests, and README's public-name table lists them.

scipy is a test dependency only: the matrix-exponential oracle
(`propagate_numeric`, run by `mgt verify`) is numpy's, and no `mgt`
invocation may pay scipy's import time, the N = 1 decay curves, whose tail
bound takes the k^-1 order, included. `import mgt_spectral`
and `mgt_spectral.cli` load `errors` and `params` only; the layer modules, and
numpy with them, load on first use.
The front door also loads no `dataclasses`, `inspect` or `json` (`json`
loads in `mgt decay`), not the `mgt verify` suites in `mgt_spectral.verify`
and not the `--config` handling in `mgt_spectral._config`.
"""

import ast
import os
import re
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
             ["mode", *point, "--k", "1.5", "--t-count", "11"],
             ["decay", *point, "--dim", "1", "--data", "u0:zero,u1:gaussian:1:1,u2:zero",
              "--t-count", "3"],
             ["verify", "--quick", *point]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert mgt_spectral.cli.main(argv) == 0, argv
print(sorted(name for name in sys.modules
             if name.split(".")[0] in ("scipy", "mpmath", "sympy", "hypothesis")))
"""


def test_import_and_scalar_commands_load_no_scipy():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip().splitlines()[-1] == "[]"


LAYERS = ("spectrum", "mode_solver", "lyapunov", "quadrature", "decay")
FRONT_DOOR = ["mgt_spectral.cli", "mgt_spectral.errors", "mgt_spectral.params"]


def run_probe(code: str) -> list[str]:
    """stdout lines of `code` run in a fresh interpreter that imports from src/."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert res.returncode == 0, res.stderr
    return res.stdout.strip().splitlines()


LOADED = """
print(sorted(name for name in sys.modules
             if name.split(".")[0] in ("numpy", "dataclasses", "inspect", "json")
             or name.startswith("mgt_spectral.")))
"""


def test_front_door_loads_no_numpy_and_no_layer():
    loaded = run_probe("import sys\nimport mgt_spectral, mgt_spectral.cli\n" + LOADED)
    assert loaded[-1] == str(FRONT_DOOR)


def test_classify_help_version_and_bad_input_load_no_numpy():
    probe = """
import contextlib, io, sys
import mgt_spectral.cli
point = ["--tau", "0.1", "--beta", "1"]
for argv, code in ((["classify", *point], 0), (["classify", *point, "--all-bounds"], 0),
                   (["--help"], 0), (["atlas", "--help"], 0), (["--version"], 0),
                   (["classify", "--tau", "2", "--beta", "1"], 2),
                   (["atlas", "--tau", "0.1"], 2), (["mode", "--k", "x"], 2),
                   (["verify", "--quick", "--beta", "3"], 2)):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            got = mgt_spectral.cli.main(argv)
        except SystemExit as exc:
            got = exc.code
    assert got == code, (argv, got)
""" + LOADED
    assert run_probe(probe)[-1] == str(FRONT_DOOR)


def test_atlas_loads_only_the_spectrum_layer():
    probe = """
import contextlib, io, sys
import mgt_spectral.cli
with contextlib.redirect_stdout(io.StringIO()):
    assert mgt_spectral.cli.main(["atlas", "--tau", "0.1", "--beta", "1"]) == 0
print(sorted(name for name in sys.modules if name.startswith("mgt_spectral.")))
"""
    assert run_probe(probe)[-1] == str(FRONT_DOOR + ["mgt_spectral.spectrum"])


def test_mode_loads_only_its_layers():
    # the --data profiles live in mode_solver: no decay, no quadrature
    probe = """
import contextlib, io, sys
import mgt_spectral.cli
argv = ["mode", "--tau", "0.1", "--beta", "1", "--t-count", "3",
        "--data", "u0:gaussian:2:3,u1:mfgaussian:1.5:2,u2:zero"]
with contextlib.redirect_stdout(io.StringIO()):
    assert mgt_spectral.cli.main(argv) == 0
print(sorted(name for name in sys.modules if name.startswith("mgt_spectral.")))
"""
    layers = ["mgt_spectral.lyapunov", "mgt_spectral.mode_solver", "mgt_spectral.spectrum"]
    assert run_probe(probe)[-1] == str(sorted(FRONT_DOOR + layers))


def test_config_handling_loads_only_for_config(tmp_path):
    good, bad = tmp_path / "good.cfg", tmp_path / "bad.cfg"
    good.write_text("tau = 0.1\nbeta = 1\nall_bounds = yes\n")
    bad.write_text("tau = 0.1\nbeta = 1\nk_cont = 3\n")
    probe = f"""
import contextlib, io, sys
import mgt_spectral.cli

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return mgt_spectral.cli.main(list(argv))

assert run("classify", "--tau", "0.1", "--beta", "1") == 0
print("mgt_spectral._config" in sys.modules)
assert run("classify", "--config", {str(good)!r}) == 0
assert run("classify", "--config", {str(bad)!r}) == 2
""" + LOADED
    lines = run_probe(probe)
    assert lines[-2] == "False"
    assert lines[-1] == str(sorted(FRONT_DOOR + ["mgt_spectral._config"]))


def test_every_public_name_is_the_defining_module_object():
    probe = """
import importlib, inspect
import mgt_spectral
assert len(mgt_spectral.__all__) == len(set(mgt_spectral.__all__)) == 74
for name in mgt_spectral.__all__:
    obj = getattr(mgt_spectral, name)
    if inspect.ismodule(obj):
        assert obj.__name__ == "mgt_spectral." + name, name
        assert obj is importlib.import_module(obj.__name__), name
    else:
        assert obj.__module__.startswith("mgt_spectral."), name
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name
print(sorted(n for n in mgt_spectral.__all__ if inspect.ismodule(getattr(mgt_spectral, n))))
try:
    mgt_spectral.no_such_name
except AttributeError as exc:
    print(exc)
"""
    lines = run_probe(probe)
    assert lines[-2] == str(sorted(("errors", "params") + LAYERS))
    assert lines[-1] == "module 'mgt_spectral' has no attribute 'no_such_name'"


def test_dir_and_star_import_list_the_public_names():
    probe = """
import mgt_spectral
names = set(mgt_spectral.__all__)
assert names <= set(dir(mgt_spectral)), names - set(dir(mgt_spectral))
namespace = {}
exec("from mgt_spectral import *", namespace)
assert names == set(namespace) - {"__builtins__"}, names ^ set(namespace)
print("ok")
"""
    assert run_probe(probe)[-1] == "ok"


def test_every_error_type_is_raised_and_has_one_exit_code():
    import ast
    import inspect

    from mgt_spectral import cli, errors

    raised = set()
    for path in (SRC / "mgt_spectral").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and isinstance(node.exc.func, ast.Name)):
                raised.add(node.exc.func.id)
    types = [obj for _, obj in inspect.getmembers(errors, inspect.isclass)
             if issubclass(obj, errors.MGTError) and obj is not errors.MGTError]
    assert types
    for exc in types:
        assert exc.__name__ in raised, f"nothing raises {exc.__name__}"
        routes = (issubclass(exc, cli._BAD_INPUT_ERRORS), issubclass(exc, cli._NUMERICAL_ERRORS))
        assert routes.count(True) == 1, (exc.__name__, routes)


ROOT = SRC.parent

#: names with no reader outside the tests: the modules, and mode_coefficients,
#: which bench/tests/test_bench.py pins as the alias lyapunov.mode_coefficients
#: until that pin moves to an alias lyapunov uses (ROADMAP item 3)
NO_READER_NEEDED = {"mode_coefficients"}


#: the package's module names, as `from mgt_spectral import decay` binds them
MODULES = {p.stem for p in (SRC / "mgt_spectral").glob("*.py")}


def _reads(source: str, src_module: bool = False) -> set[str]:
    """The names a file reads: each loaded bare name that an import in the file binds to
    mgt_spectral (`from mgt_spectral import rho`, `from .lyapunov import rho as r`) or,
    in a src module, that the module itself defines (a top-level def or class); and each
    attribute of a name that an import in the file binds to mgt_spectral or one of its
    modules (`mgt.rho`, `lyapunov.rho`, `mgt_spectral.decay.decay_curve`), not of any
    other object (`f.rho`, a FunctionalValues field).  A bare name that the file binds
    otherwise (bench/checks.py's own `def mode_matrix`) is not a read, and an import
    reads nothing."""
    tree = ast.parse(source)
    bound = set()
    names = {}  # local name -> the public name a load of it reads
    if src_module:
        names |= {node.name: node.name for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {alias.asname or "mgt_spectral" for alias in node.names
                      if alias.name.split(".")[0] == "mgt_spectral"}
        elif isinstance(node, ast.ImportFrom) and (
                node.level or node.module.split(".")[0] == "mgt_spectral"):
            names |= {alias.asname or alias.name: alias.name for alias in node.names}
            if node.module in ("mgt_spectral", None):
                bound |= {alias.asname or alias.name for alias in node.names
                          if alias.name in MODULES}

    def package(node) -> bool:
        if isinstance(node, ast.Attribute):
            return node.attr in MODULES and package(node.value)
        return isinstance(node, ast.Name) and node.id in bound

    return ({names[node.id] for node in ast.walk(tree) if isinstance(node, ast.Name)
             and isinstance(node.ctx, ast.Load) and node.id in names}
            | {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and package(node.value)})


def _readers() -> dict[str, set[str]]:
    """name -> the files that read it (_reads), among src/ (not __init__.py), demos/,
    bench/ (not bench/tests) and the acceptance tests."""
    files = [p for p in (SRC / "mgt_spectral").glob("*.py") if p.name != "__init__.py"]
    files += list((ROOT / "demos").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
    files += [p for p in (ROOT / "bench").rglob("*.py") if "tests" not in p.parts]
    readers: dict[str, set[str]] = {}
    for path in files:
        for name in _reads(path.read_text(), src_module=path.parent.name == "mgt_spectral"):
            readers.setdefault(name, set()).add(path.relative_to(ROOT).as_posix())
    return readers


def test_census_counts_an_attribute_only_of_the_package():
    snippet = """
import mgt_spectral as mgt
from mgt_spectral import FrequencyProfile
f = mgt.functionals(p, state, w)
print(f.rho, FrequencyProfile.gaussian)
"""
    reads = _reads(snippet)
    assert "functionals" in reads and "FrequencyProfile" in reads
    assert "rho" not in reads and "gaussian" not in reads
    # the same attribute of an imported module is a read
    assert "rho" in _reads(snippet + "from mgt_spectral import lyapunov\nlyapunov.rho(1.0)\n")
    assert "rho" in _reads("from . import lyapunov\nlyapunov.rho(1.0)\n")
    assert "rho" in _reads("import mgt_spectral.lyapunov\nmgt_spectral.lyapunov.rho(1.0)\n")


def test_census_counts_a_bare_name_only_where_the_package_binds_it():
    # a file's own def of a public name is not a read of the package's name
    own = "def mode_matrix(tau, beta, k):\n    return k\n\nmode_matrix(0.1, 1.0, 2.0)\n"
    assert "mode_matrix" not in _reads(own)
    assert "mode_matrix" in _reads(own, src_module=True)
    # an import binds it, under its own name or an alias
    assert "mode_matrix" in _reads("from mgt_spectral import mode_matrix as mm\nmm(p, 1.0)\n")
    assert "mode_matrix" in _reads("from .mode_solver import mode_matrix\nmode_matrix(p, 1.0)\n")
    assert "mm" not in _reads("from mgt_spectral import mode_matrix as mm\nmm(p, 1.0)\n")


def _readme_table() -> dict[str, str]:
    """README's public-name table: name -> its reader cell."""
    table = (ROOT / "README.md").read_text().split("| name | layer | one reader |")[1]
    return dict(re.findall(r"^\| `([^`]+)` \| [^|]+ \| (.+) \|$", table.split("\n\n")[0],
                           re.M))


def _exempt() -> set[str]:
    import inspect

    import mgt_spectral

    return NO_READER_NEEDED | {name for name in mgt_spectral.__all__
                               if inspect.ismodule(getattr(mgt_spectral, name))}


def test_readme_counts_the_public_names():
    import mgt_spectral

    readme = (ROOT / "README.md").read_text()
    count = re.search(r"`mgt_spectral\.__all__` holds (\d+) names", readme)
    assert int(count[1]) == len(mgt_spectral.__all__)


def test_every_public_name_has_a_reader_outside_the_tests():
    import mgt_spectral

    readers, exempt = _readers(), _exempt()
    unread = [name for name in mgt_spectral.__all__ if name not in exempt and name not in readers]
    assert not unread, unread


def test_readme_table_lists_every_public_name_with_a_reader():
    import mgt_spectral

    readers, exempt, table = _readers(), _exempt(), _readme_table()
    assert list(table) == mgt_spectral.__all__
    # each row's reader (its first `path`) reads the name
    wrong = [name for name, cell in table.items() if name not in exempt
             and re.match(r"`([^`]+)`", cell)[1] not in readers[name]]
    assert not wrong, wrong
