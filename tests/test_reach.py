"""The reachability probe (``benchmarks/perf/reach.py``) on a planted
package: one tiny entry point, a forked child, an allowlist."""

from __future__ import annotations

import sys

import pytest

from benchmarks.perf.reach import run

MODULE = '''\
import os


def called():
    return 1


def uncalled():
    return 2


def allowed():
    return 3


def in_child():
    return 4


def main():
    called()
    pid = os.fork()
    if pid == 0:
        in_child()
        os._exit(0)
    os.waitpid(pid, 0)
'''

ENTRY = [
    ("main", [sys.executable, "-c", "import plant.mod; plant.mod.main()"]),
]


@pytest.fixture
def planted(tmp_path):
    package = tmp_path / "src" / "plant"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(MODULE)
    return tmp_path


def allow_line(name):
    """``~name`` marks an entry that may be reached."""
    mark = "~" if name.startswith("~") else ""
    return f"{mark}src/plant/mod.py:{name.lstrip('~')} why\n"


def check(root, capsys, *allowed):
    allow = root / "allow.txt"
    allow.write_text("# planted\n" + "".join(map(allow_line, allowed)))
    status = run(ENTRY, root / "src" / "plant", root, allow, check=True,
                 pythonpath=(root / "src",))
    return status, capsys.readouterr().out


def test_uncalled_is_reported_allowed_is_not_and_a_forked_call_counts(
    planted, capsys
):
    status, out = check(planted, capsys, "allowed")
    assert status == 1
    assert "  src/plant/mod.py:uncalled  [not allowed]\n" in out
    assert "  src/plant/mod.py:allowed\n" in out
    # Run in the parent, or only in the child that left via os._exit.
    for name in ("called", "main", "in_child"):
        assert f"src/plant/mod.py:{name}" not in out
    assert (
        "reached 3 of 5 functions; unreached 2: allowlisted 1, "
        "not allowed 1; stale allowlist entries 0"
    ) in out


def test_check_passes_when_every_unreached_function_is_allowed(
    planted, capsys
):
    status, out = check(planted, capsys, "allowed", "uncalled")
    assert status == 0
    assert "[not allowed]" not in out


@pytest.mark.parametrize(
    "stale, why", [("called", "reached"), ("gone", "no such function")]
)
def test_a_stale_allowlist_entry_fails_the_check(planted, capsys, stale, why):
    status, out = check(planted, capsys, "allowed", "uncalled", stale)
    assert status == 1
    assert f"stale allowlist entry: src/plant/mod.py:{stale} ({why})" in out


def test_a_scheduling_dependent_entry_may_be_reached_but_must_exist(
    planted, capsys
):
    status, out = check(planted, capsys, "allowed", "uncalled", "~called")
    assert status == 0
    assert "stale allowlist entry" not in out
    status, out = check(planted, capsys, "allowed", "uncalled", "~gone")
    assert status == 1
    assert (
        "stale allowlist entry: src/plant/mod.py:gone (no such function)"
    ) in out
