"""Benchmark support: measurements, sweep runners, report formatting.

The actual experiments live in the repository's ``benchmarks/``
directory: ``benchmarks/spine/`` is the committed, comparable
benchmark (``BENCHMARK.json``), the ``bench_*.py`` files are one
pytest-benchmark experiment each; this package holds the reusable
machinery so the experiment files stay declarative.
"""

from repro.bench.metrics import UpdateMeasurement, measure_outcome
from repro.bench.runner import (
    build_and_update,
    measure_blueprint_update,
    sweep,
)
from repro.bench.reporting import ReportWriter

__all__ = [
    "UpdateMeasurement",
    "measure_outcome",
    "build_and_update",
    "measure_blueprint_update",
    "sweep",
    "ReportWriter",
]
