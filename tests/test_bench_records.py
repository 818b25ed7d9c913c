"""The committed bench records (``benchmarks/results/BENCH_*.json``)
against the rung table that writes them.  Reads files only; runs no
simulation.

A record is a measurement of one commit on one host, so what is held
here is what the simulated clock decides: the head says where it was
taken, the recheck passed, and the paper-scale rungs meet the
acceptance bars their experiments were built to.

Every measured figure DESIGN, README and EXPERIMENTS quote names its
record in an HTML comment, and :func:`check_tags` holds the figure to
it at the precision printed:

* ``<!-- rec FILE KEY.PATH -->`` after a figure: the value at that key
  of ``benchmarks/results/FILE``; ``BENCH_x.json@rung`` is that rung's
  latest record.  A list is indexed by position.
* ``<!-- rec FILE PREFIX -->`` alone on the line above a table: each
  row's leading cells are keys under ``PREFIX`` (as many as resolve),
  each further cell the value at its header's key below them, and the
  rows name every key at that depth.
* ``<!-- txt FILE:LINE -->`` after a figure: it is printed on that line
  of ``benchmarks/results/FILE``.
* ``<!-- paper WHERE -->`` after a figure: quoted from the paper.

A table cell holding a decimal figure carries a tag unless the whole
table does.
"""

from __future__ import annotations

import json
import re
from typing import Any, List

import pytest

from benchmarks.perf.bench import BENCHES, HEAD, RESULTS, bench_path


def records(name):
    return json.loads(bench_path(name).read_text())


def latest(name, rung):
    return [r for r in records(name) if r["rung"] == rung][-1]


def test_every_record_file_is_a_bench():
    names = {path.name for path in RESULTS.glob("BENCH_*.json")}
    assert names == {bench_path(name).name for name in BENCHES}


@pytest.mark.parametrize("name", sorted(BENCHES))
def test_every_rung_is_recorded_with_its_head(name):
    recorded = records(name)
    assert {r["rung"] for r in recorded} == set(BENCHES[name])
    for record in recorded:
        assert tuple(record)[: len(HEAD)] == HEAD
        assert record["command"] == name
        assert record["cpu_count"] >= 2, record["timestamp"]
        assert record["deterministic"] is True, record["timestamp"]


def test_loadtest_paper_stack_beats_baseline():
    """≥ 3x simulated creates/s and ≥ 2x lower p95 at the top rate
    with every provisioning feature on."""
    record = latest("loadtest", "paper")
    assert record["throughput_speedup_at_max_rate"] >= 3.0
    assert record["p95_improvement_at_max_rate"] >= 2.0


def test_disttree_paper_tree_stays_flat():
    """8 -> 512 hosts: tree p95 within 1.5x of its 8-host value while
    the NFS star grows at least 5x."""
    record = latest("disttree", "paper")
    assert record["tree_p95_growth"] <= 1.5
    assert record["star_p95_growth"] >= 5.0


def test_megachaos_paper_ladder():
    record = latest("megachaos", "paper")
    assert record["ladder_monotone"] is True
    assert record["leaked"] is False
    final = {p["rung"]: p for p in record["points"]}["admission"]
    assert final["availability"] >= 0.9


def test_megaload_million_rung_is_a_million_requests():
    record = latest("megaload", "million")
    for point in record["points"]:
        assert point["ok"] + point["failed"] == 1_000_000
    assert record["peak_rss_mb"] < 8192


#: The documents whose figures are held to the records.
DOCS = ("DESIGN.md", "README.md", "EXPERIMENTS.md")
ROOT = RESULTS.parent.parent

TAG = re.compile(r"<!-- (rec|txt|paper) ([^>]*?) -->")
#: A printed figure: digits with optional thousands commas and one
#: decimal part; ``§4.3``, ``x1.5`` and ``2.5.1`` are not figures.
FIGURE = re.compile(r"(?<![\w.§])\d[\d,]*(?:\.\d+)?(?![\w.]?\d)")
#: A code span, whose digits are names or commands, not figures.
CODE = re.compile(r"`[^`]*`")


def _record(name: str) -> Any:
    name, _, rung = name.partition("@")
    if rung:
        return latest(name[len("BENCH_"):-len(".json")], rung)
    return json.loads((RESULTS / name).read_text())


def _child(node: Any, key: str) -> Any:
    if isinstance(node, dict):
        return node.get(key)
    if isinstance(node, list) and key.isdigit() and int(key) < len(node):
        return node[int(key)]
    return None


def _resolve(node: Any, path: str) -> Any:
    for key in filter(None, path.split(".")):
        node = _child(node, key)
    return node


def _agrees(printed: str, value: Any) -> bool:
    """``printed`` is ``value`` at the precision printed."""
    text = printed.strip("*` ").replace(",", "")
    if isinstance(value, str):
        return text == value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    places = len(text.partition(".")[2])
    return f"{value:.{places}f}" == text


def _figures(text: str) -> List[str]:
    return FIGURE.findall(CODE.sub("", TAG.sub("", text)))


def _untagged(cell: str) -> List[str]:
    """The decimal figures of a table cell that no tag follows."""
    found, start = [], 0
    for tag in TAG.finditer(cell):
        found += _figures(cell[start:tag.start()])[:-1]
        start = tag.end()
    return [f for f in found + _figures(cell[start:]) if "." in f]


def _cells(line: str) -> List[str]:
    return [cell.strip() for cell in line.strip().strip("|").split("|")]


def _check_table(lines, at, record, prefix, where) -> List[str]:
    """The rows of the table starting at ``lines[at]`` against
    ``record`` under ``prefix``."""
    header = [cell.strip("` ") for cell in _cells(lines[at])]
    top = _resolve(record, prefix)
    if top is None:
        return [f"{where}: no key {prefix!r}"]
    wrong, named, depth = [], set(), None
    for row in lines[at + 2:]:
        if not row.startswith("|"):
            break
        cells, node, keys = _cells(row), top, []
        while len(keys) < len(cells) - 1:
            child = _child(node, cells[len(keys)].strip("` "))
            if child is None:
                break
            node = child
            keys.append(cells[len(keys)].strip("` "))
        if depth is None:
            depth = len(keys)
        named.add(tuple(keys))
        for key, cell in zip(header[len(keys):], cells[len(keys):]):
            value = _resolve(node, key)
            if value is None:
                wrong.append(f"{where}: {prefix} {keys} has no {key!r}")
            elif not _agrees(cell, value):
                wrong.append(
                    f"{where}: {prefix} {keys} {key}: {cell} != {value!r}"
                )
    expected = {()}
    for _ in range(depth or 0):
        expected = {
            keys + (str(key),)
            for keys in expected
            for node in [_resolve(top, ".".join(keys))]
            for key in (
                node if isinstance(node, dict) else range(len(node))
            )
        }
    if named != expected:
        wrong.append(f"{where}: rows {sorted(named)} != {sorted(expected)}")
    return wrong


def check_tags(text: str, name: str = "doc") -> List[str]:
    """Every way ``text`` disagrees with the records it cites: a figure
    other than its record's, a tag naming a missing file, key or line,
    a tagged table with a row too few, and a table cell with an
    untagged decimal figure.  Empty when the document is right."""
    lines = text.splitlines()
    wrong: List[str] = []
    in_tagged_table = False
    for n, line in enumerate(lines):
        where = f"{name}:{n + 1}"
        # A tag quoted in a code span is prose about tags.
        line = CODE.sub(lambda span: " " * len(span.group()), line)
        tags = list(TAG.finditer(line))
        if line.startswith("|"):
            if not in_tagged_table:
                wrong += [
                    f"{where}: untagged figure {figure}"
                    for cell in _cells(line)
                    for figure in _untagged(cell)
                ]
        else:
            in_tagged_table = False
        above_table = n + 1 < len(lines) and lines[n + 1].startswith("|")
        if (
            above_table
            and len(tags) == 1
            and tags[0].group(1) == "rec"
            and tags[0].span() == (0, len(line))
        ):
            file, _, prefix = tags[0].group(2).partition(" ")
            try:
                record = _record(file)
            except (OSError, IndexError, ValueError) as exc:
                wrong.append(f"{where}: {file}: {exc}")
                continue
            in_tagged_table = True
            wrong += _check_table(lines, n + 1, record, prefix, where)
            continue
        start = 0
        for tag in tags:
            kind, spec = tag.groups()
            figures = _figures(line[start:tag.start()])
            start = tag.end()
            if kind == "paper":
                continue
            if not figures:
                wrong.append(f"{where}: {kind} tag after no figure")
                continue
            figure = figures[-1]
            if kind == "txt":
                file, _, at = spec.partition(":")
                path = RESULTS / file
                printed = (
                    path.read_text().splitlines()
                    if path.suffix == ".txt" and path.is_file()
                    else []
                )
                if not at.isdigit() or not 0 < int(at) <= len(printed):
                    wrong.append(f"{where}: no line {spec}")
                elif figure.replace(",", "") not in FIGURE.findall(
                    printed[int(at) - 1]
                ):
                    wrong.append(f"{where}: {figure} not on {spec}")
                continue
            file, _, path = spec.partition(" ")
            try:
                value = _resolve(_record(file), path)
            except (OSError, IndexError, ValueError) as exc:
                wrong.append(f"{where}: {file}: {exc}")
                continue
            if value is None:
                wrong.append(f"{where}: no key {spec!r}")
            elif not _agrees(figure, value):
                wrong.append(f"{where}: {figure} != {spec} = {value!r}")
    return wrong


@pytest.mark.parametrize("name", DOCS)
def test_every_quoted_figure_resolves_to_its_record(name):
    text = (ROOT / name).read_text()
    assert TAG.search(text), f"{name} cites no record"
    assert check_tags(text, name) == []


def test_checker_reports_a_hand_edited_cell_and_a_missing_key():
    design = (ROOT / "DESIGN.md").read_text()
    # The create-cost table's first row, one digit off.
    row = next(
        line for line in design.splitlines()
        if line.startswith("| `paper_seq` | 2004 |")
    )
    cells = row.split(" | ")
    off = cells[2] = f"{float(cells[2]) + 0.1:.1f}"  # py_calls_per_request
    edited = " | ".join(cells)
    assert edited != row
    planted = design.replace(row, edited).replace(
        "\n## Determinism\n",
        "\nA figure 4.02 <!-- rec E2E_create_cost.json "
        "records.paper_seq.2004.no_such_key -->.\n\n## Determinism\n",
    )
    assert planted.count("no_such_key") == 1
    missing, edited_cell = check_tags(planted, "DESIGN.md")
    assert "no_such_key" in missing
    assert off in edited_cell and "py_calls_per_request" in edited_cell
