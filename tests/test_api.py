"""The public surface: every exported name resolves, every script imports
and rejects a malformed comma list or a bad parameter value, and every
attribute the benchmark's tracer wraps still exists."""
import glob
import importlib.util
import os
import subprocess
import sys

import pytest

import asymlab

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_all_names_resolve():
    missing = [name for name in asymlab.__all__ if not hasattr(asymlab, name)]
    assert not missing
    assert len(set(asymlab.__all__)) == len(asymlab.__all__)


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(ROOT, "scripts", "*.py"))),
                         ids=os.path.basename)
def test_script_imports(path):
    """Each script imports without running: `main` sits behind the
    `__main__` guard, so this fails only on a name the script lost."""
    spec = importlib.util.spec_from_file_location("script_" + os.path.basename(path)[:-3], path)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))


# (script, arguments, a part of its one-line error message)
SCRIPT_ERRORS = [
    ("solver_convergence.py", ["--base", "33"], "--base"),
    ("solver_convergence.py", ["--base", "33,6.5"], "--base"),
    ("oracle_sweep.py", ["--shells", "50,400"], "--shells"),
    ("oracle_sweep.py", ["--shells", "50,abc,6"], "--shells"),
    # parameter values the library rejects with BadParams, a config error
    ("radial_families.py", ["--c", "-1"], "c > 0"),
    ("solver_convergence.py", ["--r-inner", "-1"], "r_inner"),
    ("solver_convergence.py", ["--base", "3,8"], "n_r"),
    ("oracle_sweep.py", ["--shells", "400,50,6"], "increasing"),
    ("solver_convergence.py", ["--levels", "0"], "--levels"),
    # a size numpy refuses to allocate (7 PiB, refused at once) is BadParams too
    ("oracle_sweep.py", ["--shells", "50,400,1000000000000000"], "Unable to allocate"),
]


@pytest.mark.parametrize("name, args, says", [
    pytest.param(*row, id=f"{row[0]}-{' '.join(row[1])}") for row in SCRIPT_ERRORS])
def test_script_malformed_comma_list_exits_2(name, args, says):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")])))
    r = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name), *args],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 2
    assert r.stderr.startswith(f"{name}: error: ") and r.stderr.count("\n") == 1
    assert says in r.stderr
    assert "Traceback" not in r.stderr and r.stdout == ""


def test_tracing_targets_exist():
    path = os.path.join(ROOT, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module, attr, _ in tracing.TARGETS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
