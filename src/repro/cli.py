"""Command-line interface: ``python -m repro ...`` or ``vmplants``.

``vmplants --help`` lists the commands; each is one row of
:data:`COMMANDS`.  A command's flags are read off the function its row
names, so a parameter is declared once, where it is used:

* ``seed``, and every parameter the function's docstring documents
  with ``:param name:``, is the flag ``--name`` — type from the
  annotation (``Sequence[T]`` takes one or more values, ``bool`` is a
  switch, ``Literal`` lists the choices), default from the signature,
  help from the ``:param`` text;
* ``--report PATH`` exists where the result has ``to_record()``;
* ``--replay PATH`` exists where the module has ``replay(record, ...)``,
  which is also passed the flags the module's ``HOST_SIDE`` names.

To add an experiment, write ``run_x`` with documented parameters and
add a row.  Only the chosen command's module is imported.
"""

from __future__ import annotations

import argparse
import collections.abc
import importlib
import inspect
import json
import re
import sys
import typing
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Literal, Mapping, Optional, Sequence

__all__ = ["COMMANDS", "Command", "main", "build_parser"]


@dataclass(frozen=True)
class Command:
    """One ``vmplants`` subcommand."""

    #: ``module:function``, imported when the command is chosen.
    target: str
    help: str
    in_all: bool = False
    #: Public spelling -> where the value goes, for the flags not named
    #: after their parameter: a parameter name, or ``<scenario>.<key>``
    #: for one entry of ``params`` (typed by that scenario's default).
    flags: Mapping[str, str] = field(default_factory=dict)


COMMANDS: Dict[str, Command] = {
    "demo": Command("repro.cli:run_demo", "create/query/destroy one VM"),
    "figure4": Command(
        "repro.experiments.histfigures:run_figure4",
        "Figure 4: creation latency by VM memory size", in_all=True,
    ),
    "figure5": Command(
        "repro.experiments.histfigures:run_figure5",
        "Figure 5: cloning latency by VM memory size", in_all=True,
    ),
    "figure6": Command(
        "repro.experiments.figure6:run_figure6",
        "Figure 6: cloning latency over the request sequence", in_all=True,
    ),
    "uml": Command(
        "repro.experiments.uml:run_uml_study",
        "Section 4.3: the boot-based UML production line", in_all=True,
    ),
    "costfn": Command(
        "repro.experiments.costfn:run_costfn",
        "Section 3.4: the two-plant cost-function crossover", in_all=True,
    ),
    "textnumbers": Command(
        "repro.experiments.textnumbers:run_textnumbers",
        "Section 4.3: every number quoted in the prose", in_all=True,
    ),
    "ablations": Command(
        "repro.experiments.ablations:run_all_ablations",
        "every design-choice ablation, one table each", in_all=True,
    ),
    "concurrency": Command(
        "repro.experiments.concurrency:run_concurrency",
        "one request batch at several in-flight limits", in_all=True,
    ),
    "migration": Command(
        "repro.experiments.migration_exp:run_migration",
        "VM migration latency and rebalancing", in_all=True,
    ),
    "scalability": Command(
        "repro.experiments.scalability:run_scalability",
        "site-size sweep, flat vs. brokered bidding", in_all=True,
    ),
    "resilience": Command(
        "repro.experiments.resilience:run_resilience",
        "plant failures surfaced vs. retried; the restart drill", in_all=True,
    ),
    "replicas": Command(
        "repro.experiments.concurrency:run_warehouse_replicas",
        "warehouse replica counts at a fixed concurrency level", in_all=True,
    ),
    # Not part of ``all``, which stays deterministic per seed and quick:
    # host wall-clock / CPU-time columns, or deliberately heavy sweeps.
    "matching": Command(
        "repro.experiments.scalability:run_matching_scalability",
        "warehouse-size sweep of the indexed matching path",
    ),
    "loadtest": Command(
        "repro.experiments.loadtest:run_loadtest",
        "Poisson-arrival throughput sweep: baseline vs host caches "
        "vs coalescing vs speculative pools",
    ),
    "disttree": Command(
        "repro.experiments.disttree:run_disttree",
        "fleet-size ladder of same-image broadcast bursts: NFS star "
        "vs peer distribution tree",
    ),
    "federation": Command(
        "repro.experiments.federation:run_federation",
        "federated multi-site sweep: site count x cross-site traffic "
        "fraction, one kernel shard per site",
        flags={
            "sites": "site_counts",
            "cross": "cross_fractions",
            "plants": "plants_per_site",
            "deadline": "deadline_s",
            "rack-size": "federation.rack_size",
            "spill-deadline": "federation.spill_deadline_s",
        },
    ),
    "chaos": Command(
        "repro.experiments.chaos:run_chaos",
        "deterministic fault injection: sweep MTBF over the "
        "surface/retry/deadline/breaker recovery ladder",
        flags={"mtbf": "mtbf_sweep", "mttr": "mttr_s"},
    ),
    "megaload": Command(
        "repro.experiments.megaload:run_megaload",
        "trace-driven multi-tenant load on federated sites with "
        "streaming metrics; scales to a million requests",
        flags={
            "shards": "shard_counts",
            "deadline": "deadline_s",
            "plants": "megaload.plants",
            "rate": "megaload.rate_per_s",
            "cross": "megaload.cross_fraction",
            "spill-deadline": "megaload.spill_deadline_s",
        },
    ),
    "megachaos": Command(
        "repro.experiments.megachaos:run_megachaos",
        "grid resilience ladder: site blackout + flash crowd over "
        "none/faults/failover/admission",
        flags={
            "blackout-duration": "blackout_s",
            "crash-plants": "crash_plants_per_site",
            "mtbf": "mtbf_s",
            "mttr": "mttr_s",
            "spill-backoff": "spill_backoff_s",
            "deadline": "deadline_s",
        },
    ),
    "all": Command("repro.cli:run_all", "regenerate every paper artifact"),
}


def run_demo(seed: int = 2004, memory: Literal[32, 64, 256] = 32) -> str:
    """Create, query and destroy one VM on the eight-plant testbed.

    :param memory: VM memory in MB (the paper's three golden sizes)
    """
    from repro import build_testbed, experiment_request

    bed = build_testbed(seed=seed)
    ad = bed.run(bed.shop.create(experiment_request(memory)))
    lines = [
        f"created {ad['vmid']} on {ad['plant']}",
        f"  image      : {ad['image_id']}",
        f"  ip         : {ad['ip']} ({ad['network_id']})",
        f"  clone      : {ad['clone_time']:.1f}s",
        f"  configure  : {ad['config_time']:.1f}s",
        f"  actions    : {ad['actions_cached']} cached, "
        f"{ad['actions_executed']} executed",
    ]
    status = bed.run(bed.shop.query(str(ad["vmid"])))
    lines.append(f"query: status={status.get('status')}")
    final = bed.run(bed.shop.destroy(str(ad["vmid"])))
    lines.append(
        f"destroyed at t={final.get('collected_at'):.1f}s "
        f"(simulated clock)"
    )
    return "\n".join(lines)


def run_all(seed: int = 2004) -> str:
    """Every ``in_all`` row of the table, in its order."""
    return ("\n\n" + "=" * 70 + "\n\n").join(
        _text(_load(row.target)[1](seed=seed))
        for row in COMMANDS.values() if row.in_all
    )


def _load(target: str):
    """``module:function`` -> (module, function)."""
    module_name, _, function = target.partition(":")
    module = importlib.import_module(module_name)
    return module, getattr(module, function)


def _text(result) -> str:
    """What a command prints: a result's table(s)."""
    if isinstance(result, str):
        return result
    if isinstance(result, dict):
        return "\n\n".join(r.render() for r in result.values())
    return result.render()


def _param_docs(fn: Callable) -> Dict[str, str]:
    """Help for ``seed`` plus the ``:param name: text`` fields (a field
    runs on over indented lines) of ``fn``'s docstring."""
    fields = re.findall(
        r"^:param (\w+):(.*(?:\n +\S.*)*)", inspect.getdoc(fn) or "", re.M
    )
    docs = {"seed": "root seed of every named random stream"}
    docs.update((name, " ".join(text.split())) for name, text in fields)
    return docs


def _typed(annotation) -> Dict[str, Any]:
    """argparse keywords for a parameter annotated ``annotation``."""
    origin, inner = typing.get_origin(annotation), typing.get_args(annotation)
    if origin is typing.Union:  # Optional[T]: None comes from the default
        return _typed(next(t for t in inner if t is not type(None)))
    if origin is Literal:
        return {"type": type(inner[0]), "choices": inner}
    if origin is collections.abc.Sequence:
        return {**_typed(inner[0]), "nargs": "+"}
    if annotation is bool:
        return {"action": "store_true"}
    return {"type": annotation, "metavar": annotation.__name__}


def _add_flags(parser: argparse.ArgumentParser, row: Command) -> None:
    module, fn = _load(row.target)
    hints = typing.get_type_hints(fn)
    docs = _param_docs(fn)
    spelling = {where: flag for flag, where in row.flags.items()}
    for name, param in inspect.signature(fn).parameters.items():
        if name in docs:
            parser.add_argument(
                "--" + spelling.get(name, name.replace("_", "-")),
                dest=name,
                default=param.default,
                help=f"{docs[name]} (default: {param.default})",
                **_typed(hints[name]),
            )
    for flag, where in row.flags.items():
        if "." in where:
            from repro.sim.shard.scenarios import get_scenario

            scenario, key = where.split(".")
            default = get_scenario(scenario).defaults()[key]
            parser.add_argument(
                "--" + flag,
                dest=where,
                help=f"`{scenario}` scenario parameter {key} "
                f"(scenario default: {default})",
                **_typed(type(default)),
            )
    if hasattr(hints.get("return"), "to_record"):
        parser.add_argument(
            "--report", metavar="PATH",
            help="write the result's JSON record (to_record()) to PATH",
        )
    if hasattr(module, "replay"):
        parser.add_argument(
            "--replay", metavar="PATH",
            help="re-run what a saved --report recorded, plan and run "
            "parameters; of the other flags only the host-side ones "
            "(--deadline, --trace-capacity) still count",
        )


def build_parser(
    only: Optional[Sequence[str]] = None,
) -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing).

    Reading a command's flags imports its module, so ``main`` asks for
    the flags of the chosen command ``only``; ``None`` attaches all.
    """
    parser = argparse.ArgumentParser(
        prog="vmplants",
        description="VMPlants (SC 2004) reproduction: run the demo or "
        "regenerate any paper artifact.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, row in COMMANDS.items():
        cmd = sub.add_parser(name, help=row.help, description=row.help)
        if only is None or name in only:
            _add_flags(cmd, row)
        cmd.set_defaults(usage_error=cmd.error)
    return parser


def _run(name: str, values: Dict[str, Any]) -> str:
    """Call ``name``'s function with parsed flag ``values``; its text."""
    module, fn = _load(COMMANDS[name].target)
    report, replay = values.pop("report", None), values.pop("replay", None)
    kwargs: Dict[str, Any] = {}
    for dest, value in values.items():
        if "." not in dest:
            kwargs[dest] = tuple(value) if isinstance(value, list) else value
        elif value is not None:
            kwargs.setdefault("params", {})[dest.split(".")[1]] = value
    if replay:
        with open(replay) as fh:
            record = json.load(fh)
        host_side = getattr(module, "HOST_SIDE", ())
        result = module.replay(
            record, **{k: v for k, v in kwargs.items() if k in host_side}
        )
    else:
        result = fn(**kwargs)
    if report:
        with open(report, "w") as fh:
            json.dump(result.to_record(), fh, indent=2, sort_keys=True)
    return _text(result)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    values = vars(build_parser(argv[:1]).parse_args(argv))
    usage_error = values.pop("usage_error")
    try:
        print(_run(values.pop("command"), values))
    except ValueError as exc:
        # A run_* argument check (shards > sites, unknown params key).
        usage_error(str(exc))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
