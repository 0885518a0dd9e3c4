"""Report output for the benchmark suite.

Each ``bench_*.py`` experiment writes its series/table both to stdout
(visible with ``pytest -s``) and to ``<directory>/<experiment>.txt`` —
scratch output for the person running it.  The numbers the repository
commits and compares across PRs come from ``benchmarks/spine/``.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Sequence
from typing import Any

from repro._util import format_table
from repro.bench.metrics import UpdateMeasurement


class ReportWriter:
    """Accumulates and persists one experiment's report."""

    def __init__(self, directory: str, experiment: str) -> None:
        self.directory = directory
        self.experiment = experiment
        self._sections: list[str] = []

    def add_table(
        self,
        headers: Sequence[str],
        rows: Iterable[Sequence[Any]],
        *,
        title: str = "",
    ) -> str:
        text = format_table(headers, rows, title=title)
        self._sections.append(text)
        return text

    def add_measurements(
        self, measurements: Iterable[UpdateMeasurement], *, title: str = ""
    ) -> str:
        return self.add_table(
            UpdateMeasurement.HEADERS,
            [m.row() for m in measurements],
            title=title,
        )

    def add_text(self, text: str) -> None:
        self._sections.append(text)

    def flush(self) -> str:
        """Write the report file; returns its path."""
        os.makedirs(self.directory, exist_ok=True)
        path = os.path.join(self.directory, f"{self.experiment}.txt")
        body = "\n\n".join(self._sections) + "\n"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(body)
        print(f"\n[{self.experiment}]\n{body}")
        return path
