"""Shared fixtures for the benchmark suite.

Every experiment writes a plain-text report alongside the
pytest-benchmark timing table: one file per experiment module, shared
by all its tests and flushed at session end into a git-ignored
directory next to this file.
"""

from __future__ import annotations

import os

import pytest

from repro.bench.reporting import ReportWriter

REPORT_DIR = os.path.join(os.path.dirname(__file__), "reports")


def pytest_addoption(parser):
    parser.addoption(
        "--smoke",
        action="store_true",
        default=False,
        help=(
            "shrink benchmark workloads to a fast, correctness-only smoke "
            "run (CI uses this to catch codegen regressions without paying "
            "for full-size timings)"
        ),
    )
    parser.addoption(
        "--storm",
        action="store_true",
        default=False,
        help=(
            "run the admission-queuing storm scenarios "
            "(bench_concurrent.py): capped max_active_sessions under a "
            "multi-origin update storm"
        ),
    )
    parser.addoption(
        "--processes",
        action="store_true",
        default=False,
        help=(
            "run the process-per-node scenarios (bench_concurrent.py): "
            "the same CPU-bound storm over one-OS-process-per-node vs "
            "the threaded TCP runner; skips gracefully on <2 cores"
        ),
    )
    parser.addoption(
        "--rejoin",
        action="store_true",
        default=False,
        help=(
            "run the crash-and-rejoin recovery matrix (bench_churn.py): "
            "SIGKILL a worker mid-chain, supervised restart from its "
            "durable snapshot, and measure reconvergence wall time and "
            "re-shipped bytes — warm rejoin vs a cold restart that "
            "lost the snapshot"
        ),
    )


@pytest.fixture
def smoke(request):
    """Whether this run is a --smoke run (small sizes, no timing gates)."""
    return bool(request.config.getoption("--smoke"))


@pytest.fixture
def storm(request):
    """Whether the admission-storm scenarios were requested (--storm)."""
    return bool(request.config.getoption("--storm"))


@pytest.fixture
def processes(request):
    """Whether the process-runner scenarios were requested (--processes)."""
    return bool(request.config.getoption("--processes"))


@pytest.fixture
def rejoin(request):
    """Whether the crash-and-rejoin scenarios were requested (--rejoin)."""
    return bool(request.config.getoption("--rejoin"))

_writers: dict[str, ReportWriter] = {}


@pytest.fixture
def report(request):
    """The requesting module's ReportWriter (one per experiment file)."""
    module = request.module.__name__.rsplit(".", 1)[-1]
    writer = _writers.get(module)
    if writer is None:
        writer = ReportWriter(REPORT_DIR, module)
        _writers[module] = writer
    return writer


@pytest.fixture(scope="session", autouse=True)
def _flush_reports():
    yield
    for writer in _writers.values():
        writer.flush()
