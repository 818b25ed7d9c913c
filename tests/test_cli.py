"""The ``vmplants`` surface, pinned: tables, reports, replay, quoted lines.

Every table under ``benchmarks/results/*.txt`` is the output of one
CLI command at the paper seed; a ``--report`` file replays to the same
bytes; every command line the docs quote still parses.  A refactor of
``repro/cli.py`` or of an experiment's record is right iff nothing
here moves.
"""

import hashlib
import json
import re
from pathlib import Path

import pytest

from benchmarks.perf.bench import HOST_KEYS, run_bench
from repro.cli import COMMANDS, build_parser, main

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "benchmarks" / "results"

#: Committed table -> the arguments that regenerate it (``--seed 2004``
#: appended).  ``ablations`` prints its tables joined by a blank line,
#: in ``ABLATIONS`` order.
TABLES = {
    "figure4_creation_latency": ["figure4"],
    "figure5_cloning_latency": ["figure5"],
    "figure6_cloning_vs_sequence": ["figure6"],
    "uml_boot_clone": ["uml"],
    "extension_sbuml": ["uml", "--sbuml"],
    "costfn_section34": ["costfn"],
    "textnumbers_section43": ["textnumbers"],
    "extension_concurrency": ["concurrency"],
    "extension_migration": ["migration"],
    "extension_scalability": ["scalability"],
    "extension_resilience": ["resilience"],
    "extension_warehouse_replicas": ["replicas"],
}
ABLATION_TABLES = {
    "clone_mode": "ablation_clone_mode",
    "matching": "ablation_partial_matching",
    "speculative": "ablation_speculative",
    "state_cache": "ablation_state_cache",
    "cost_model": "ablation_cost_model",
}


def run_cli(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def committed(table):
    return (RESULTS / f"{table}.txt").read_text()


def committed_ablations():
    return "\n".join(committed(table) for table in ABLATION_TABLES.values())


def test_every_committed_table_has_a_command():
    tables = {path.stem for path in RESULTS.glob("*.txt")}
    assert tables == set(TABLES) | set(ABLATION_TABLES.values())
    assert len(tables) == 17


@pytest.mark.parametrize("table", sorted(TABLES))
def test_committed_table_is_what_the_cli_regenerates(capsys, table):
    out = run_cli(capsys, *TABLES[table], "--seed", "2004")
    assert out == committed(table)


@pytest.mark.parametrize(
    "table", sorted(set(TABLES) | set(ABLATION_TABLES.values()))
)
def test_every_rule_is_as_wide_as_the_header_row(table):
    lines = committed(table).splitlines()
    rules = [i for i, line in enumerate(lines) if re.fullmatch("-+", line)]
    header = lines[rules[0] - 1]
    assert {len(lines[i]) for i in rules} == {len(header)}


def test_ablations_prints_every_committed_ablation_table(capsys):
    from repro.experiments.ablations import ABLATIONS

    assert list(ABLATIONS) == list(ABLATION_TABLES)
    out = run_cli(capsys, "ablations", "--seed", "2004")
    assert out == committed_ablations()


def test_all_is_every_artifact_of_the_table_in_order(capsys):
    text_of = {
        argv[0]: committed(table)
        for table, argv in TABLES.items()
        if len(argv) == 1
    }
    text_of["ablations"] = committed_ablations()
    names = [name for name, row in COMMANDS.items() if row.in_all]
    assert len(names) == 12
    out = run_cli(capsys, "all", "--seed", "2004")
    assert out == ("\n" + "=" * 70 + "\n\n").join(text_of[n] for n in names)


# ---------------------------------------------------------------------------
# --report / --replay (the arguments the CI smoke jobs used to pass)
# ---------------------------------------------------------------------------

CHAOS_ARGS = [
    "chaos", "--seed", "7", "--requests", "16",
    "--mtbf", "150", "300", "--mttr", "50",
]
MEGACHAOS_ARGS = [
    "megachaos", "--seed", "7", "--sites", "2", "--shards", "2",
    "--requests-per-site", "60", "--blackout-at", "40",
    "--blackout-duration", "40", "--shed-depth", "64",
    "--preempt-depth", "48", "--deadline", "300",
]
#: SHA-256 of the report files commit 17c4732 writes for those
#: arguments (``json.dump(..., indent=2, sort_keys=True)``).
REPORT_SHA256 = {
    "chaos": (
        "bb0f1a0e548fcd7b361789bd18de54f5bfa3ca86be7cd889c9d4be66d6a7bc1f"
    ),
    "megachaos": (
        "a2baa6865cb080980796efd9e30e24e0712d0826880cc5b3890aa74bbb7241c6"
    ),
}


def record_then_replay(capsys, tmp_path, args):
    """The report ``args`` write, after checking its replay equals it."""
    first, second = tmp_path / "report.json", tmp_path / "replay.json"
    printed = run_cli(capsys, *args, "--report", str(first))
    # Replay takes the run's parameters from the report, not the flags.
    replayed = run_cli(
        capsys, args[0], "--seed", "99",
        "--replay", str(first), "--report", str(second),
    )
    assert printed == replayed
    assert first.read_bytes() == second.read_bytes()
    assert (
        hashlib.sha256(first.read_bytes()).hexdigest()
        == REPORT_SHA256[args[0]]
    )
    return json.loads(first.read_text())


def test_chaos_report_replays_bit_identically(capsys, tmp_path):
    report = record_then_replay(capsys, tmp_path, CHAOS_ARGS)
    for mtbf in (150.0, 300.0):
        ladder = {
            p["policy"]: p for p in report["points"] if p["mtbf_s"] == mtbf
        }
        assert list(ladder) == report["policies"]
        availability = [p["availability"] for p in ladder.values()]
        assert availability == sorted(availability), mtbf
        assert ladder["breaker"]["availability"] >= 0.9, mtbf
        for point in ladder.values():
            assert not any(point["leaks"].values()), point


def test_megachaos_report_replays_bit_identically(capsys, tmp_path):
    report = record_then_replay(capsys, tmp_path, MEGACHAOS_ARGS)
    assert report["ladder_monotone"] is True
    assert report["deterministic"] is True
    assert report["leaked"] is False
    assert all(p["accounted"] for p in report["points"])
    final = {p["rung"]: p for p in report["points"]}["admission"]
    assert final["availability"] >= 0.9


# ---------------------------------------------------------------------------
# --report records, key for key
# ---------------------------------------------------------------------------

#: Small runs whose record is pinned in ``report_goldens.json``: the
#: four ``--report`` files without a replay, and the ``points`` of the
#: ``loadtest`` / ``disttree`` bench records (``small`` rung).
REPORT_RUNS = {
    "kernelbench": [
        "--seed", "7", "--sites", "2", "--shards", "1", "2",
        "--requests-per-site", "12",
    ],
    "federation": [
        "--seed", "7", "--sites", "1", "2", "--cross", "0.0", "0.3",
        "--requests-per-site", "12",
    ],
    "megaload": [
        "--seed", "7", "--sites", "2", "--shards", "1", "2",
        "--requests-per-site", "30",
    ],
    "disttree": ["--seed", "7", "--hosts", "4", "8"],
}
#: Golden key -> the ``benchmarks.perf.bench`` command whose ``small``
#: record's ``points`` it pins (the keys are the names of the scripts
#: that recorded them first).
BENCH_RUNS = {"provision_bench": "loadtest", "distribution_bench": "disttree"}
GOLDENS = json.loads(
    (Path(__file__).parent / "report_goldens.json").read_text()
)


def sim_side(value, host=False):
    """``value`` with the same keys at every level and every value
    under a ``HOST_KEYS`` key (read off the host's clock, memory or core
    count) blanked.  The goldens are ``sim_side`` of what commit f92f9be
    writes, dumped with ``indent=1, sort_keys=True``."""
    if isinstance(value, dict):
        return {
            key: sim_side(inner, host or key in HOST_KEYS)
            for key, inner in value.items()
        }
    if isinstance(value, list):
        return [sim_side(inner, host) for inner in value]
    return None if host else value


@pytest.mark.parametrize("command", sorted(REPORT_RUNS))
def test_report_is_the_pinned_record(capsys, tmp_path, command):
    path = tmp_path / "report.json"
    run_cli(capsys, command, *REPORT_RUNS[command], "--report", str(path))
    assert sim_side(json.loads(path.read_text())) == GOLDENS[command]


@pytest.mark.parametrize("bench", sorted(BENCH_RUNS))
def test_bench_points_are_the_pinned_records(tmp_path, bench):
    _, record = run_bench(BENCH_RUNS[bench], "small", tmp_path / "bench.json")
    assert sim_side(record["points"]) == GOLDENS[bench]


# ---------------------------------------------------------------------------
# The parser itself
# ---------------------------------------------------------------------------

#: Every public flag (``--seed`` alone where a command is not listed):
#: the 77 that the hand-written parser's 66 ``add_argument`` statements
#: made, 12 artifacts sharing one loop.
FLAGS = {
    "demo": "seed memory",
    "uml": "seed sbuml",
    "loadtest": "seed requests rates cache-mb",
    "disttree": "seed hosts fanout report",
    "kernelbench": "seed sites shards requests-per-site report",
    "federation": (
        "seed sites cross plants requests-per-site rack-size "
        "spill-deadline deadline report"
    ),
    "chaos": "seed requests rate mtbf mttr report replay",
    "megaload": (
        "seed sites shards requests-per-site plants rate cross "
        "spill-deadline deadline trace-capacity report"
    ),
    "megachaos": (
        "seed sites shards requests-per-site blackout-site blackout-at "
        "blackout-duration crash-plants mtbf mttr wan-site wan-severity "
        "spill-attempts spill-backoff shed-depth preempt-depth deadline "
        "trace-capacity report replay"
    ),
}


def subparsers():
    return build_parser()._subparsers._group_actions[0].choices


def test_flag_spellings_are_the_ones_documented():
    commands = subparsers()
    assert list(commands) == list(COMMANDS)
    total = 0
    for name, parser in commands.items():
        flags = {
            option[2:]
            for action in parser._actions
            for option in action.option_strings
            if option.startswith("--") and option != "--help"
        }
        assert flags == set(FLAGS.get(name, "seed").split()), name
        total += len(flags)
    assert total == 77


def test_defaults_are_the_signatures():
    parser = build_parser()
    args = parser.parse_args(["megachaos"])
    assert (args.shards, args.blackout_s, args.wan_site) == (4, 60.0, None)
    assert args.shed_depth == 240 and args.deadline_s == 1800.0
    args = parser.parse_args(["federation", "--sites", "2", "4"])
    assert args.site_counts == [2, 4]
    assert args.cross_fractions == (0.0, 0.1, 0.3)
    assert parser.parse_args(["demo"]).memory == 32
    with pytest.raises(SystemExit):
        parser.parse_args(["demo", "--memory", "48"])


def quoted_command_lines():
    pattern = re.compile(r"(?:vmplants|python -m repro) +([^`#\n]*)")
    for name in ("README.md", "DESIGN.md", ".github/workflows/ci.yml"):
        text = (ROOT / name).read_text().replace("\\\n", " ")
        for match in pattern.finditer(text):
            argv = []
            for token in match.group(1).split():
                if not re.fullmatch(r"[\w.\-]+", token):
                    break
                argv.append(token)
            if argv and argv[0] in COMMANDS:
                yield name, argv


def test_every_quoted_command_line_parses():
    parser = build_parser()
    lines = list(quoted_command_lines())
    assert len(lines) >= 30
    assert {name for name, _ in lines} >= {"README.md", "DESIGN.md"}
    for name, argv in lines:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"{name}: `vmplants {' '.join(argv)}` does not parse")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["megaload", "--sites", "2"], "cannot exceed sites"),
        (["megachaos", "--sites", "2"], "cannot exceed sites"),
        (["kernelbench", "--shards", "2", "4"], "must include 1"),
        (
            ["federation", "--sites", "2", "--spill-deadline", "0"],
            "spill_deadline_s must be positive",
        ),
    ],
)
def test_bad_argument_combination_is_a_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: vmplants") and message in err
    assert "Traceback" not in err
