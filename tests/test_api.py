"""The public surface: every exported name resolves, every script imports,
and every attribute the benchmark's tracer wraps still exists."""
import glob
import importlib.util
import os

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


def test_tracing_targets_exist():
    path = os.path.join(ROOT, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module, attr, _ in tracing.TARGETS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
