"""Import cost follows use: the library layer never loads the report layer.

DESIGN.md, "Process footprint & import layering".  A process that
builds testbeds and runs creates (every e2e workload, every forked
shard worker) must not pay for numpy or the experiment drivers; only
the report layer — the experiment drivers, the numpy-backed
analysis modules and the CLI — may import them.  No package
``__init__`` re-exports its subtree, so a single-site process does not
load the grid stack either, and a workload loads in its set-up
everything its run will call.

Run as ``PYTHONPATH=src:. python -m tests.test_import_graph`` to print
the ``repro`` modules, source lines and dataclass-built classes each
end-to-end workload's set-up loads, and which fork or fault machinery.
"""

import ast
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: The library layer: standard library only, never the report layer.
#: Whole subpackages ...
LIBRARY_PACKAGES = (
    "repro.core",
    "repro.sim",
    "repro.shop",
    "repro.plant",
    "repro.vnet",
    "repro.cost",
    "repro.faults",
    "repro.federation",
    "repro.distribution",
    "repro.workloads",
    "repro.local",
)
#: ... and single modules (a package name here is its ``__init__``).
LIBRARY_MODULES = (
    "repro",
    "repro.provisioning",
    "repro.analysis",
    "repro.analysis.streaming",
    "repro.experiments",
    "repro.experiments.runner",
)
#: The report layer is everything else under these; it alone may use
#: numpy.
REPORT_ROOTS = (
    "repro.cli",
    "repro.__main__",
    "repro.analysis",
    "repro.experiments",
)
#: Modules a create-path process must not have loaded.
REPORT_ONLY = (
    "numpy",
    "concurrent.futures",
    "repro.experiments.loadtest",
    "repro.analysis.stats",
    "repro.analysis.histograms",
    "repro.analysis.tables",
)
#: Modules only a grid run needs: a single-site process (``paper_seq``'s
#: set-up) must not have loaded them.  ``repro.federation`` means the
#: whole package.
GRID_ONLY = (
    "repro.federation",
    "repro.sim.shard.runner",
    "repro.sim.shard.sync",
    "repro.sim.shard.ring",
    "repro.sim.shard.worker",
    "repro.faults.injector",
    "repro.faults.plan",
    "repro.plant.migration",
    "multiprocessing",
)
#: What only a forked plan needs (``ShardedTestbed`` loads it when
#: ``shards > 1``) and what only a plan with a ``fault_plan`` needs.
FORK_ONLY = ("multiprocessing", "repro.sim.shard.worker")
FAULT_ONLY = ("repro.faults.injector", "repro.faults.plan")
#: The package ``__init__``s that may import, and what: ``repro`` keeps
#: the quickstart names (from leaf modules only) and ``repro.sim.shard``
#: its plan, which ``benchmarks/e2e/workloads.py`` imports from there.
#: ``None`` = any leaf module.
REEXPORTS = {"repro": None, "repro.sim.shard": ["repro.sim.shard.plan"]}


def _modules():
    """Dotted name -> source path for every module under ``src/repro``."""
    found = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        found[".".join(parts)] = path
    return found


MODULES = _modules()


def _is_under(name: str, roots) -> bool:
    return any(name == root or name.startswith(root + ".") for root in roots)


def _in_library(name: str) -> bool:
    return name in LIBRARY_MODULES or _is_under(name, LIBRARY_PACKAGES)


REPORT = sorted(name for name in MODULES if not _in_library(name))


def _imports(path: Path):
    """Every import in ``path`` — module level or nested — as a dotted
    target; ``from pkg import sub`` names the submodule when ``sub`` is
    one."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"{path}: relative import"
            names = [f"{node.module}.{alias.name}" for alias in node.names]
            targets = [n if n in MODULES else node.module for n in names]
        else:
            continue
        yield from targets


def _python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": f"{SRC}{os.pathsep}{ROOT}"},
        capture_output=True,
        text=True,
        timeout=120,
    )


PACKAGES = sorted(
    name for name, path in MODULES.items() if path.name == "__init__.py"
)


@pytest.mark.parametrize("package", PACKAGES)
def test_package_init_reexports_nothing(package):
    targets = list(_imports(MODULES[package]))
    allowed = REEXPORTS.get(package, [])
    if allowed is None:
        assert targets, package
        assert not set(targets) & set(PACKAGES), (
            f"{package}/__init__.py imports a package: {targets}"
        )
    else:
        assert targets == allowed, (
            f"{package}/__init__.py imports {targets}: import from the "
            "leaf module instead (DESIGN.md, 'Process footprint & import "
            "layering')"
        )


def test_every_module_sits_in_exactly_one_layer():
    for name in REPORT:
        assert _is_under(name, REPORT_ROOTS), (
            f"{name} is in neither layer: add it to one"
        )
    for name in LIBRARY_MODULES + LIBRARY_PACKAGES:
        assert name in MODULES, f"{name} is listed but does not exist"


def test_library_layer_imports_stdlib_and_library_only():
    for name, path in MODULES.items():
        if not _in_library(name):
            continue
        for target in _imports(path):
            top = target.split(".")[0]
            if top != "repro":
                assert top in sys.stdlib_module_names, (
                    f"{name} imports {target}: the library layer is "
                    "standard library only"
                )
            else:
                assert _in_library(target), (
                    f"{name} imports {target}: the library layer never "
                    "imports the report layer"
                )


#: The two modules that may touch the collector: the pre-fork collect
#: and the post-fork freeze of the sharded runner.
GC_CALLERS = {"repro.sim.shard.runner", "repro.sim.shard.worker"}


def test_lifetime_is_reference_counting_not_a_collector_call():
    # DESIGN, "Ownership and lifetime": no cycle is built, so nothing
    # under src/ has a reason to call the collector or to hang a
    # finalizer on an object.
    for name, path in MODULES.items():
        gc_calls = []
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                assert node.name != "__del__", f"{name} defines __del__"
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "gc", f"{name}: from gc import ..."
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "gc"
            ):
                gc_calls.append(f"gc.{node.attr}:{node.lineno}")
        expected = 1 if name in GC_CALLERS else 0
        assert len(gc_calls) == expected, f"{name} uses {gc_calls}"


CREATE_PATH_PROBE = """
import json, sys
import benchmarks.e2e.workloads  # all that the end-to-end benchmark imports
from repro.sim.cluster import build_testbed
from repro.sim.shard import ShardedTestbed
from repro.workloads.megaload import merge_site_summaries
from repro.workloads.requests import experiment_request

bed = build_testbed(seed=1)
ad = bed.run(bed.shop.create(experiment_request(memory_mb=32)))
run = ShardedTestbed(seed=2004, sites=2, shards=1, scenario="megaload").run(
    params={"requests": 30}, collect=None
)
merged = merge_site_summaries(
    run.site_results, group_of=lambda site: run.partition[site]
)
print(json.dumps({
    "vmid": str(ad["vmid"]),
    "ok": merged.total("ok"),
    "loaded": [name for name in %r if name in sys.modules],
}))
"""


def test_create_path_process_loads_no_report_module():
    done = _python("-c", CREATE_PATH_PROBE % (REPORT_ONLY,))
    assert done.returncode == 0, done.stderr[-2000:]
    seen = json.loads(done.stdout.splitlines()[-1])
    assert seen["vmid"] and seen["ok"] > 0
    assert seen["loaded"] == []


#: Prints the ``repro`` classes whose ``@dataclass`` decorator ran,
#: by qualified name (class bodies searched too).
RECORDS_SNIPPET = """
def dataclass_records():
    seen, found = set(), []
    def visit(owner, name):
        for value in vars(owner).values():
            if (
                isinstance(value, type)
                and value.__module__ == name
                and value not in seen
            ):
                seen.add(value)
                if "__dataclass_fields__" in vars(value):
                    found.append(f"{name}.{value.__qualname__}")
                visit(value, name)
    for name, module in list(sys.modules.items()):
        if module is not None and name.split(".")[0] == "repro":
            visit(module, name)
    return sorted(found)
"""

WORKLOAD_PROBE = """
import json, sys
import benchmarks.e2e.workloads as e2e  # all that the benchmark imports
%s
workload = e2e.WORKLOADS[%r]
inputs = workload.setup(2004, workload.scaled(0.05))
setup = set(sys.modules)
records = dataclass_records()
workload.run(inputs)
print(json.dumps({
    "setup": sorted(setup),
    "records": records,
    "run": sorted(set(sys.modules) - setup),
}))
"""

#: The five end-to-end workloads, in ``BENCHMARK.json`` order.
E2E_WORKLOADS = (
    "paper_seq", "site_burst", "site_catalog", "grid_steady", "grid_overload"
)


@functools.lru_cache(maxsize=None)
def workload_modules(workload: str) -> dict:
    """What a fresh interpreter that imports ``benchmarks.e2e.workloads``
    has loaded once ``workload``'s set-up returns (``"setup"``), and what
    its run then added (``"run"``), and the dataclass-built ``repro``
    classes its set-up holds (``"records"``); scale 0.05."""
    done = _python("-c", WORKLOAD_PROBE % (RECORDS_SNIPPET, workload))
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.splitlines()[-1])


def setup_footprint(workload: str) -> tuple:
    """``(repro modules, their source lines)`` ``workload``'s set-up loads."""
    names = [
        name for name in workload_modules(workload)["setup"]
        if _is_under(name, ("repro",))
    ]
    lines = sum(
        len(MODULES[name].read_text().splitlines()) for name in names
    )
    return len(names), lines


def test_single_site_setup_loads_no_grid_module():
    loaded = workload_modules("paper_seq")["setup"]
    assert "repro.sim.cluster" in loaded  # the probe did load a testbed
    assert [name for name in loaded if _is_under(name, GRID_ONLY)] == []


#: Every dataclass-built ``repro`` class a workload's set-up holds, the
#: same five times: the wire specs that ``dataclasses.replace`` or a
#: ``__post_init__`` serves and the validated configs.  Any other record
#: is a ``NamedTuple`` or a plain class.
SETUP_RECORDS = [
    "repro.core.actions.Action",
    "repro.core.spec.CreateRequest",
    "repro.core.spec.HardwareSpec",
    "repro.core.spec.NetworkSpec",
    "repro.core.spec.SoftwareSpec",
    "repro.faults.recovery.RecoveryPolicy",
    "repro.provisioning.ProvisioningConfig",
    "repro.sim.shard.plan.ShardedTestbed",
    "repro.workloads.traces.TenantSpec",
    "repro.workloads.traces.TraceSpec",
]


@pytest.mark.parametrize("workload", E2E_WORKLOADS)
def test_setup_builds_only_the_pinned_dataclasses(workload):
    # ``@dataclass`` generates its methods with ``exec`` in every fresh
    # interpreter: no bytecode cache ever holds them.
    records = workload_modules(workload)["records"]
    assert records == SETUP_RECORDS, (
        f"{workload}'s set-up builds the dataclasses {records}: a frozen "
        "internal record is a NamedTuple and a mutable service object a "
        "plain class (DESIGN.md, 'Process footprint & import layering', "
        "the record rule); pin a dataclass here only for a wire spec or "
        "a validated config"
    )


@pytest.mark.parametrize("workload", E2E_WORKLOADS)
def test_setup_loads_no_invigo_workspace(workload):
    # ``repro`` re-exports the quickstart names only; the Figure 3
    # workspace DAG is loaded from its leaf module by the two callers
    # that draw it (the ablations and an example).
    assert "repro.workloads.invigo" not in workload_modules(workload)["setup"]


def test_in_process_grid_setup_loads_no_fork_or_fault_machinery():
    loaded = workload_modules("grid_overload")["setup"]
    assert "repro.sim.shard.runner" in loaded  # the probe did plan a grid
    assert [
        name for name in loaded if _is_under(name, FORK_ONLY + FAULT_ONLY)
    ] == []


PLAN_PROBE = """
import json, sys
from repro.sim.shard import ShardedTestbed

before = set(sys.modules)
plan = ShardedTestbed(seed=3, sites=2, shards=%d, scenario="megaload",
                      params=%r)
planned = set(sys.modules)
if %r:
    run = plan.run(params={"requests": 6, "plants": 2}, collect=None)
    assert run.shards == plan.shards and run.total_events > 0
print(json.dumps({
    "planned": sorted(planned - before),
    "run": sorted(set(sys.modules) - planned),
}))
"""

#: One grid fault-plan record (``FaultPlan.to_records()``'s shape).
FAULT_RECORDS = [
    {"at": 5.0, "kind": "guest-hang", "target": "s0-p0", "duration": 1.0,
     "severity": 0.0, "mode": "stall", "site": 0},
]


def _plan_modules(shards: int, params: dict, run: bool = False) -> dict:
    """What a fresh interpreter loads while it builds a two-site
    ``ShardedTestbed`` (``"planned"``), and what running it then adds."""
    done = _python("-c", PLAN_PROBE % (shards, params, run))
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.splitlines()[-1])


def _machinery(names) -> dict:
    return {
        "fork": [n for n in FORK_ONLY if n in names],
        "fault": [n for n in FAULT_ONLY if n in names],
    }


def test_an_in_process_plan_loads_no_fork_or_fault_machinery():
    planned = _plan_modules(1, {})["planned"]
    assert "repro.sim.shard.runner" in planned
    assert _machinery(planned) == {"fork": [], "fault": []}


def test_a_forked_plan_loads_the_fork_machinery_while_it_plans():
    planned = _plan_modules(2, {})["planned"]
    assert _machinery(planned) == {"fork": list(FORK_ONLY), "fault": []}


def test_a_fault_plan_loads_the_fault_machinery_while_it_plans():
    planned = _plan_modules(1, {"fault_plan": FAULT_RECORDS})["planned"]
    assert _machinery(planned) == {"fork": [], "fault": list(FAULT_ONLY)}


def test_a_forked_run_imports_no_repro_module_after_planning():
    loaded = _plan_modules(2, {}, run=True)
    assert _machinery(loaded["planned"])["fork"] == list(FORK_ONLY)
    assert [name for name in loaded["run"] if _is_under(name, ("repro",))] == []


@pytest.mark.parametrize("workload", E2E_WORKLOADS)
def test_run_imports_nothing_its_setup_did_not(workload):
    # A module first loaded inside the timed run is set-up cost moved
    # into the measured window.  Standard-library modules multiprocessing
    # loads when it forks are not the library's and are not checked.
    added = workload_modules(workload)["run"]
    assert [name for name in added if _is_under(name, ("repro",))] == []


def _cli_loads_no_report_module(*argv: str) -> str:
    done = _python("-X", "importtime", "-m", "repro.cli", *argv)
    assert done.returncode == 0, done.stderr[-2000:]
    loaded = {
        line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()
    }
    assert "repro.core.classad" in loaded  # the import log is there
    assert not loaded & set(REPORT_ONLY)
    assert not [
        name for name in loaded if name.startswith("repro.experiments.")
    ]
    return done.stdout


def test_cli_help_does_not_import_numpy():
    assert "megaload" in _cli_loads_no_report_module("--help")


def test_cli_demo_does_not_import_numpy():
    assert "created" in _cli_loads_no_report_module("demo", "--seed", "3")


def test_cli_subcommands_import_report_modules_only_when_run():
    from repro.cli import COMMANDS

    assert not [
        target
        for target in _imports(MODULES["repro.cli"])
        if target.startswith("repro.experiments")
    ], "cli.py names its drivers in COMMANDS and imports the chosen one"
    drivers = {
        row.target.partition(":")[0]
        for row in COMMANDS.values()
        if row.target.startswith("repro.experiments")
    }
    assert len(drivers) >= 15
    for target in drivers:
        # ... and test_report_module_imports_on_its_own covers it.
        assert target in REPORT


@pytest.mark.parametrize("module", REPORT)
def test_report_module_imports_on_its_own(module):
    # No package __init__ pre-loads a sibling any more: each report
    # module (the numpy users among them) must name what it needs.
    done = _python("-c", f"import {module}")
    assert done.returncode == 0, done.stderr[-2000:]


def test_every_e2e_trace_target_resolves():
    # benchmarks/e2e/trace.py patches these names from outside; a
    # rename under src/ must fail here, not in a traced benchmark run.
    from benchmarks.e2e.trace import TARGETS, patch_owner

    assert len(TARGETS) >= 28
    for module, cls, attribute, *_ in TARGETS:
        owner = patch_owner(module, cls)
        assert callable(getattr(owner, attribute)), (module, cls, attribute)


if __name__ == "__main__":
    print(
        "| workload | `repro` modules | source lines | dataclass records "
        "| fork / fault machinery |"
    )
    print("|---|---:|---:|---:|---|")
    for name in E2E_WORKLOADS:
        count, lines = setup_footprint(name)
        seen = workload_modules(name)
        loaded = _machinery(seen["setup"])
        machinery = ", ".join(
            kind for kind in ("fork", "fault") if loaded[kind]
        )
        print(
            f"| `{name}` | {count} | {lines:,} | {len(seen['records'])} "
            f"| {machinery or 'none'} |"
        )
