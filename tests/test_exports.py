"""Every public export resolves.

The check ruff's F822 makes in CI (a name in ``__all__`` that the
module does not define), as a test that runs wherever the suite runs.
"""

import importlib

import pytest

PACKAGES = (
    "repro",
    "repro.relational",
    "repro.baselines",
    "repro.p2p",
    "repro.service",
)


@pytest.mark.parametrize("package", PACKAGES)
def test_every_name_in_all_resolves(package):
    module = importlib.import_module(package)
    exported = module.__all__
    assert [name for name in exported if not hasattr(module, name)] == []
    assert len(set(exported)) == len(exported)
