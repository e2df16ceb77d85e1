"""The public surface: every exported name resolves, and every attribute
the benchmark's tracer wraps still exists."""
import importlib.util
import os

import asymlab

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_all_names_resolve():
    missing = [name for name in asymlab.__all__ if not hasattr(asymlab, name)]
    assert not missing
    assert len(set(asymlab.__all__)) == len(asymlab.__all__)


def test_tracing_targets_exist():
    path = os.path.join(ROOT, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module, attr, _ in tracing.TARGETS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
