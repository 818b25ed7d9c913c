"""Which ``src/repro`` functions the entry points run.

Run::

    python3 benchmarks/perf/reach.py [--check]

Every entry point (:data:`ENTRY_POINTS`) runs in a child interpreter
whose start-up installs a ``sys.setprofile`` hook: the probe writes a
``sitecustomize`` module into a temporary directory and puts that
directory first on the child's ``PYTHONPATH``, so every interpreter the
entry point starts in turn (``run.py``'s fresh set-up probes) installs
it too.  The hook adds each code object it sees to a set; a forked
child inherits the hook and the set.  When a process exits it writes
the set, filtered to the probed source tree, to a file of its own pid.
A forked shard worker leaves through ``os._exit``, which skips
``atexit``, so the hook wraps ``os._exit`` to write first.

A function is one named ``def`` in the source tree (lambdas and
comprehensions are part of the function they sit in), labelled
``path:qualname`` with the path relative to the repository root.  The
report lists, by module, every function no entry point ran.

The allowlist, ``reach_allow.txt`` beside this file, names
functions that stay although no entry point runs them, one a line:
``path:qualname`` then its one-line reason.  ``#`` starts a comment
line.  ``--check`` exits 1 when a function is neither reached nor
allowed, or when an allowlist entry names a function that is reached
or no longer exists; either way the list no longer describes the code.
An entry marked ``~`` (``~path:qualname``) names a function whose
reach depends on how the host schedules processes, such as a handler
for a full pipe: ``--check`` accepts it reached or not, but still fails
when it no longer exists.
Exit status 2: an entry point failed, so the reached set is incomplete.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import types
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Set, Tuple

__all__ = [
    "ALLOW", "ENTRY_POINTS", "ROOT", "SRC", "audit", "defined", "load_allow",
    "probe", "run", "main",
]

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
ALLOW = Path(__file__).resolve().parent / "reach_allow.txt"

#: Installed at start-up of every child interpreter.  ``REACH_OUT`` is
#: the dump directory, ``REACH_SRC`` the source tree kept at dump time.
_SITECUSTOMIZE = '''\
import atexit, cProfile, os, sys, threading

_seen = set()
_add = _seen.add


def _hook(frame, event, arg):
    _add(frame.f_code)


def _dump():
    sys.setprofile(None)
    prefix = os.environ["REACH_SRC"]
    rows = {
        f"{os.path.realpath(code.co_filename)}\\t{code.co_qualname}\\n"
        for code in _seen
    }
    with open(os.path.join(os.environ["REACH_OUT"], f"{os.getpid()}.txt"),
              "a") as fh:
        fh.writelines(row for row in rows if row.startswith(prefix))


def _exit(status, _real_exit=os._exit):
    _dump()
    _real_exit(status)


def _disable(self, _real_disable=cProfile.Profile.disable):
    _real_disable(self)
    sys.setprofile(_hook)  # before 3.12 a profiler replaces the hook


os._exit = _exit
cProfile.Profile.disable = _disable
atexit.register(_dump)
sys.setprofile(_hook)
threading.setprofile(_hook)
'''

_BENCH_RUNG = """\
import sys, tempfile
from pathlib import Path
from benchmarks.perf.bench import run_bench
with tempfile.TemporaryDirectory() as tmp:
    result, _ = run_bench(sys.argv[1], "small", Path(tmp) / "record.json")
result.render()
if hasattr(result, "to_record"):
    result.to_record()
"""


def _entry_points() -> List[Tuple[str, List[str]]]:
    """``(label, argv)`` of every entry point, run from :data:`ROOT`."""
    py = sys.executable
    entries = [
        ("vmplants all", [py, "-m", "repro", "all", "--seed", "2004"]),
    ]
    for command in ("demo", "matching", "loadtest", "disttree", "chaos"):
        entries.append((f"vmplants {command}", [py, "-m", "repro", command]))
    for bench in ("loadtest", "disttree", "kernelbench", "federation",
                  "megaload", "megachaos"):
        entries.append(
            (f"bench {bench} small", [py, "-c", _BENCH_RUNG, bench])
        )
    for workload in ("paper_seq", "site_burst", "site_catalog",
                     "grid_steady", "grid_overload"):
        entries.append((f"e2e {workload}", [
            py, "benchmarks/e2e/run.py", "--workload", workload,
            "--seed", "2004", "--scale", "0.05", "--seconds", "0",
        ]))
    for example in sorted((ROOT / "examples").glob("*.py")):
        entries.append((f"example {example.name}",
                        [py, str(example.relative_to(ROOT))]))
    return entries


ENTRY_POINTS = _entry_points()


def defined(src: Path, root: Path) -> Dict[Tuple[str, str], str]:
    """``(real path, qualname) -> label`` of every function in ``src``."""
    functions = {}
    for path in sorted(src.rglob("*.py")):
        real = os.path.realpath(path)
        label = path.relative_to(root).as_posix()
        stack = [compile(path.read_bytes(), real, "exec", dont_inherit=True)]
        while stack:
            for const in stack.pop().co_consts:
                if not isinstance(const, types.CodeType):
                    continue
                stack.append(const)
                # CO_NEWLOCALS: a function body, not a class body.
                if const.co_flags & 0x2 and not const.co_name.startswith("<"):
                    functions[(real, const.co_qualname)] = (
                        f"{label}:{const.co_qualname}"
                    )
    return functions


def probe(
    entries: Sequence[Tuple[str, Sequence[str]]],
    src: Path,
    cwd: Path,
    pythonpath: Sequence[Path],
) -> Tuple[Set[Tuple[str, str]], List[str]]:
    """Run every entry point under the hook; the ``(real path,
    qualname)`` pairs any of their processes ran under ``src``, and the
    labels of the entry points that exited non-zero."""
    reached: Set[Tuple[str, str]] = set()
    failed = []
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        hook_dir, out = Path(tmp, "hook"), Path(tmp, "out")
        hook_dir.mkdir()
        out.mkdir()
        (hook_dir / "sitecustomize.py").write_text(_SITECUSTOMIZE)
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(
                [str(hook_dir), *map(str, pythonpath)]
            ),
            REACH_OUT=str(out),
            REACH_SRC=os.path.realpath(src) + os.sep,
        )
        for label, argv in entries:
            done = subprocess.run(
                list(argv), cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True,
            )
            if done.returncode != 0:
                failed.append(label)
                sys.stderr.write(
                    f"reach: {label} exited {done.returncode}\n"
                    f"{done.stderr[-2000:]}\n"
                )
        for dump in out.iterdir():
            for row in dump.read_text().splitlines():
                path, qualname = row.split("\t")
                reached.add((path, qualname))
    return reached, failed


def load_allow(path: Path) -> Tuple[Dict[str, str], Set[str]]:
    """``label -> reason`` of an allowlist file, and the labels marked
    ``~`` (reached or not, depending on scheduling)."""
    allowed = {}
    either = set()
    for number, line in enumerate(path.read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        label, _, reason = line.partition(" ")
        if label.startswith("~"):
            label = label[1:]
            either.add(label)
        if not reason.strip():
            raise SystemExit(f"{path}:{number}: {label} gives no reason")
        if label in allowed:
            raise SystemExit(f"{path}:{number}: {label} is listed twice")
        allowed[label] = reason.strip()
    return allowed, either


def audit(
    functions: Dict[Tuple[str, str], str],
    reached: Iterable[Tuple[str, str]],
    allowed: Dict[str, str],
    either: Set[str] = frozenset(),
) -> Tuple[List[str], List[str]]:
    """The unreached labels, sorted, and the stale allowlist entries,
    each with why it is stale; an ``either`` entry may be reached."""
    hit = {functions[key] for key in reached if key in functions}
    unreached = sorted(set(functions.values()) - hit)
    stale = [
        f"{label} (reached)" if label in hit else f"{label} (no such function)"
        for label in sorted(allowed)
        if label not in unreached and not (label in hit and label in either)
    ]
    return unreached, stale


def run(
    entries: Sequence[Tuple[str, Sequence[str]]],
    src: Path,
    root: Path,
    allow: Path,
    check: bool = False,
    pythonpath: Sequence[Path] = (),
) -> int:
    """Probe, print the report; the exit status (see the module doc)."""
    functions = defined(src, root)
    allowed, either = load_allow(allow)
    reached, failed = probe(entries, src, root, pythonpath)
    unreached, stale = audit(functions, reached, allowed, either)
    by_module: Dict[str, List[str]] = defaultdict(list)
    for label in unreached:
        by_module[label.partition(":")[0]].append(label)
    for module, labels in sorted(by_module.items()):
        print(module)
        for label in labels:
            print(f"  {label}{'' if label in allowed else '  [not allowed]'}")
    for entry in stale:
        print(f"stale allowlist entry: {entry}")
    missing = [label for label in unreached if label not in allowed]
    print(
        f"reached {len(functions) - len(unreached)} of {len(functions)} "
        f"functions; unreached {len(unreached)}: allowlisted "
        f"{len(unreached) - len(missing)}, not allowed {len(missing)}; "
        f"stale allowlist entries {len(stale)}"
    )
    if failed:
        print(f"entry points that failed: {', '.join(failed)}")
        return 2
    return 1 if check and (missing or stale) else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0]
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 unless every unreached function is allowlisted and "
        "every allowlist entry not marked ~ names an unreached function",
    )
    args = parser.parse_args(argv)
    return run(ENTRY_POINTS, SRC, ROOT, ALLOW, args.check,
               pythonpath=(ROOT / "src", ROOT))


if __name__ == "__main__":
    sys.exit(main())
