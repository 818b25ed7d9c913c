"""Every example script must run cleanly end to end."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.ablations import ABLATIONS

EXAMPLES = sorted(
    (Path(__file__).parent.parent / "examples").glob("*.py")
)


@pytest.mark.parametrize(
    "script", EXAMPLES, ids=lambda p: p.stem
)
def test_example_runs(script):
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip(), "examples must narrate what they do"
    if script.stem == "reproduce_paper":
        assert proc.stdout.count("\nAblation: ") == len(ABLATIONS)


def test_examples_exist():
    assert len(EXAMPLES) >= 6
