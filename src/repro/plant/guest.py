"""Guest-side configuration mechanics: scripts, ISO images, outputs.

The prototype's production line "converts DAG actions into Perl
scripts, writes each such script to one or more CD/ISO images that are
then connected to the cloned VM as virtual CD-ROMs; a daemon running
within the VM mounts the CD-ROM and executes the configuration
scripts" (Section 4.1).  This module implements the shared, substrate-
independent half of that path:

* rendering an action (plus request context) into a shell script;
* packing scripts into an :class:`ISOImage` description;
* parsing declared outputs back out of the script's stdout.

The simulated production lines charge time for each step and size the
ISO from :func:`script_length`, the rendered script's length computed
without rendering it; the local line writes the script and executes it
with ``sh``.
"""

from __future__ import annotations

import shlex
from typing import Dict, List, Mapping, NamedTuple, Tuple

from repro.core.actions import Action

__all__ = [
    "OUTPUT_MARKER",
    "ISOImage",
    "render_script",
    "script_length",
    "iso_size_mb",
    "build_iso",
    "parse_outputs",
    "fabricate_outputs",
]

#: Prefix the guest daemon looks for on stdout lines carrying outputs.
OUTPUT_MARKER = "VMPLANT_OUTPUT"

#: The lines every script starts with.
_PREAMBLE = ("#!/bin/sh", "# generated by VMPlant", "set -e")

#: :func:`script_length`'s fixed parts, each line's newline included:
#: the preamble, and an export or output line less its name and value.
_PREAMBLE_LENGTH = sum(len(line) + 1 for line in _PREAMBLE)
_EXPORT_LENGTH = len("export VMPLANT_=\n")
_OUTPUT_LENGTH = len(f"echo {OUTPUT_MARKER} =\n")

#: ``shlex.quote``'s own test for a value that needs quoting.
_find_unsafe = shlex._find_unsafe

#: :func:`script_length`'s rendered-command lengths (newline included),
#: by ``(command, params)``: the oldest entry goes once it is full.
COMMAND_LENGTHS_MAX = 256
_command_lengths: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], int] = {}


def render_script(action: Action, context: Mapping[str, str]) -> str:
    """Render ``action`` into the configuration script the guest runs.

    The request context (vmid, client, assigned IP, ...) is exported as
    ``VMPLANT_*`` environment variables; declared outputs default to
    the corresponding environment/context value when the command does
    not emit them explicitly.
    """
    lines: List[str] = list(_PREAMBLE)
    for key in sorted(context):
        lines.append(
            f"export VMPLANT_{key.upper()}={shlex.quote(str(context[key]))}"
        )
    command = action.rendered_command()
    if command:
        lines.append(command)
    for name in action.outputs:
        if name in context:
            lines.append(
                f"echo {OUTPUT_MARKER} {name}="
                f"{shlex.quote(str(context[name]))}"
            )
    return "\n".join(lines) + "\n"


def script_length(action: Action, context: Mapping[str, str]) -> int:
    """``len(render_script(action, context))``, without rendering it.

    Each line counts its newline.  A value's quoted length is what
    ``shlex.quote`` would make of it: ``''`` when empty, the value
    itself when it has nothing unsafe, else the value in single quotes
    with each ``'`` spelled in five characters.  The command line's
    length is remembered per ``(command, params)``.
    """
    key = (action.command, action.params)
    total = _command_lengths.get(key)
    if total is None:
        command = action.rendered_command()
        total = len(command) + 1 if command else 0
        if len(_command_lengths) >= COMMAND_LENGTHS_MAX:
            del _command_lengths[next(iter(_command_lengths))]
        _command_lengths[key] = total
    total += _PREAMBLE_LENGTH
    outputs = action.outputs
    for name, value in context.items():
        value = str(value)
        if not value:
            quoted = 2
        elif _find_unsafe(value) is None:
            quoted = len(value)
        else:
            quoted = len(value) + 2 + 4 * value.count("'")
        total += _EXPORT_LENGTH + len(name.upper()) + quoted
        if outputs and name in outputs:  # echoed once per mention
            line = _OUTPUT_LENGTH + len(name) + quoted
            total += outputs.count(name) * line
    return total


def iso_size_mb(payload_bytes: int) -> float:
    """Size of a CD-ROM image carrying ``payload_bytes`` of scripts:
    ISO9660 overhead plus the payload."""
    return 0.35 + payload_bytes / (1024.0 * 1024.0)


class ISOImage(NamedTuple):
    """A virtual CD-ROM image carrying configuration scripts."""

    name: str
    files: Tuple[Tuple[str, str], ...] = ()


def build_iso(action: Action, context: Mapping[str, str]) -> ISOImage:
    """Pack one action's script into a CD-ROM image description."""
    script = render_script(action, context)
    return ISOImage(
        name=f"cfg-{action.name}.iso",
        files=((f"scripts/{action.name}.sh", script),),
    )


def parse_outputs(stdout: str, action: Action) -> Dict[str, str]:
    """Extract declared outputs from a script's stdout.

    Lines of the form ``VMPLANT_OUTPUT name=value`` publish outputs;
    only names declared by the action are honoured.
    """
    declared = set(action.outputs)
    outputs: Dict[str, str] = {}
    for line in stdout.splitlines():
        line = line.strip()
        if not line.startswith(OUTPUT_MARKER):
            continue
        rest = line[len(OUTPUT_MARKER):].strip()
        if "=" not in rest:
            continue
        name, _, value = rest.partition("=")
        name = name.strip()
        if name in declared:
            outputs[name] = value.strip()
    return outputs


def fabricate_outputs(
    action: Action, context: Mapping[str, str]
) -> Dict[str, str]:
    """Deterministic outputs for simulated guest execution.

    Context values win (e.g. the VNET-assigned IP address); anything
    else gets a stable synthetic value derived from the VM identity.
    """
    vmid = str(context.get("vmid", "vm"))
    outputs: Dict[str, str] = {}
    for name in action.outputs:
        if name in context:
            outputs[name] = str(context[name])
        else:
            outputs[name] = f"{name}-{vmid}"
    return outputs
