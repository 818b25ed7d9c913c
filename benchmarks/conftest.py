"""Benchmark-harness fixtures: shared paper suite + table reporting.

Every benchmark regenerates one of the paper's tables/figures; the
rendered text is collected here and echoed in the terminal summary
(and written under ``benchmarks/results/``) so ``pytest benchmarks/
--benchmark-only`` produces the same rows/series the paper reports.

The session-scoped ``paper_suite`` fixture simulates the three
creation runs once per session, in process (~0.2 s).
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

import pytest

from repro.experiments.runner import run_creation_suite

#: Seed used by every paper-reproduction benchmark.
PAPER_SEED = 2004

_TABLES: "dict[str, str]" = {}
_RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def paper_suite():
    """The three Section 4.2 creation runs, computed once per session."""
    return run_creation_suite(seed=PAPER_SEED)


def _atomic_write(path: Path, text: str) -> None:
    """Write-to-temp + rename so readers never see a truncated file."""
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


@pytest.fixture
def record_table():
    """Callable that registers a rendered paper table for reporting."""

    def _record(name: str, text: str) -> None:
        _TABLES[name] = text
        _RESULTS_DIR.mkdir(exist_ok=True)
        _atomic_write(_RESULTS_DIR / f"{name}.txt", text + "\n")

    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _TABLES:
        return
    for name in sorted(_TABLES):
        terminalreporter.write_sep("=", f"paper artifact: {name}")
        for line in _TABLES[name].splitlines():
            terminalreporter.write_line(line)
