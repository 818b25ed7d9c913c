"""Smoke test of the end-to-end benchmark (not part of tier-1).

    PYTHONPATH=src python -m pytest -q benchmarks/e2e/test_e2e_smoke.py

All five workloads at ``--scale 0.05``: every declared metric is
reported with its unit, sim-clock metrics repeat exactly between two
invocations, the output checks pass, the trace shims leave no class
patched, and ``BENCHMARK.json`` agrees with ``spec.py``.
"""

from __future__ import annotations

import json
import re

import pytest

from benchmarks.e2e import compare, run, spec
from benchmarks.e2e.trace import TARGETS, patch_owner
from benchmarks.e2e.workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SCALE = ["--scale", "0.05", "--seed", str(spec.DEV_SEED)]


@pytest.fixture(autouse=True)
def one_setup_probe(monkeypatch):
    # Five fresh interpreters per run are for steadiness, not coverage.
    monkeypatch.setattr(run, "SETUP_PROBES", 1)


def _run(tmp_path, workload: str, *extra: str) -> dict:
    out = tmp_path / f"{workload}{len(list(tmp_path.iterdir()))}.json"
    status = run.main(
        ["--workload", workload, "--out", str(out), *SCALE, *extra]
    )
    assert status == 0
    with open(out) as fh:
        return json.load(fh)


def _patch_points():
    for module, cls, attr, *_ in TARGETS:
        yield patch_owner(module, cls), attr


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(
    tmp_path, capsys, workload
):
    first = _run(tmp_path, workload, "--seconds", "0.1")
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    second = _run(tmp_path, workload, "--seconds", "0.1")

    assert first["correct"] and all(
        c["ok"] for c in first["checks"].values()
    )
    assert list(first["end_to_end"]) == [m.name for m in spec.END_TO_END]
    for metric in spec.END_TO_END:
        entry = first["end_to_end"][metric.name]
        assert entry["unit"] == metric.unit and UNIT.fullmatch(entry["unit"])
        assert NAME.fullmatch(metric.name)
        if metric.clock != "host":
            assert entry["value"] == second["end_to_end"][metric.name]["value"]
    assert first["end_to_end"]["determinism_ok"]["value"] == 1
    assert first["env"]["params_sha256"] == second["env"]["params_sha256"]
    assert first["env"]["REPRO_NO_CACHE"] == "1"

    # The driver's last line: exactly the gated metrics, with units.
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert list(line["metrics"]) == list(spec.DRIVER_END_TO_END)

    table = spec.by_name()
    verdicts = {
        row[2] for row in compare.compare([first], [second])
        if table[row[1]].clock != "host"
    }
    assert verdicts == {"same"}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_reports_every_layer_and_unpatches(
    tmp_path, capsys, workload
):
    originals = [vars(owner)[attr] for owner, attr in _patch_points()]
    record = _run(tmp_path, workload, "--trace", "1", "--seconds", "0")
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])

    assert record["correct"]
    assert list(record["per_layer"]) == [name for name, *_ in spec.PER_LAYER]
    for name, unit, _, _ in spec.PER_LAYER:
        assert NAME.fullmatch(name) and UNIT.fullmatch(unit)
        assert record["per_layer"][name]["unit"] == unit
    assert list(line["metrics"]) == list(spec.DRIVER_PER_LAYER)
    assert record["per_layer"]["trace.spans"]["value"] > 0
    assert (run.HERE / "out" / f"trace_{workload}.json").is_file()

    for (owner, attr), original in zip(_patch_points(), originals):
        assert vars(owner)[attr] is original, f"{owner}.{attr} left patched"


def test_layers_that_do_no_work_read_zero(tmp_path):
    layers = _run(tmp_path, "site_burst", "--trace", "1", "--seconds", "0")[
        "per_layer"
    ]
    for name in layers:
        if name.startswith(("sim.shard.", "federation.", "workloads.traces.")):
            assert layers[name]["value"] == 0, name
    assert layers["sim.host.cache_hit_ratio"]["value"] > 0
    assert layers["plant.pool_hit_ratio"]["value"] > 0


def test_benchmark_json_matches_spec():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        contract = json.load(fh)
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert contract["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    table = spec.by_name()
    assert [m["name"] for m in contract["end_to_end"]] == list(
        spec.DRIVER_END_TO_END
    )
    assert [m["name"] for m in contract["per_layer"]] == list(
        spec.DRIVER_PER_LAYER
    )
    for entry in contract["end_to_end"] + contract["per_layer"]:
        metric = table[entry["name"]]
        assert (entry["unit"], entry["better"]) == (metric.unit, metric.better)
    for entry in contract["end_to_end"]:
        assert 0 <= entry["bound"] <= 0.25
        assert entry["bound"] == spec.DRIVER_BOUNDS[entry["name"]]


def test_compare_flags_a_regression(tmp_path):
    base = _run(tmp_path, "site_burst", "--seconds", "0.1")
    slow = json.loads(json.dumps(base))
    slow["end_to_end"]["create_p50_sim_s"]["value"] *= 1.01
    for key in ("value", "q1", "q3"):
        slow["end_to_end"]["wall_s"][key] *= 2.0
    verdicts = {row[1]: row[2] for row in compare.compare([base], [slow])}
    assert verdicts["create_p50_sim_s"] == "worse"
    assert verdicts["wall_s"] in ("worse", "unresolved")
    assert verdicts["events_per_request"] == "same"
