"""Every entry point the spine's tracer wraps still exists.

``benchmarks/spine/trace.py`` wraps methods *by name*
(:func:`targets`); a handler renamed or moved away would otherwise be
caught only when the spine runs.  The module is loaded from its file:
its name shadows the standard library's ``trace``.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

TRACE = Path(__file__).resolve().parents[2] / "benchmarks" / "spine" / "trace.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("spine_trace_under_test", TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.targets()


TARGETS = load_targets()


@pytest.mark.parametrize(
    "owner, attr",
    [(owner, attr) for owner, attr, _span, _annotate in TARGETS],
    ids=[f"{owner.__name__}.{attr}" for owner, attr, _span, _annotate in TARGETS],
)
def test_the_traced_entry_point_resolves(owner, attr):
    # Raises AttributeError when the name is gone from the class.
    inspect.getattr_static(owner, attr)
