"""The In-VIGO virtual-workspace configuration DAG (Figure 3).

The paper's running example: a virtual workspace is a VM giving a user
a full X11 session via VNC plus a Web file manager, configured with
the user's identity and a mount of their distributed home directory.
Figure 3 labels the actions A–I; :func:`invigo_workspace_dag` builds
the client-specified DAG and :func:`invigo_cached_prefix` the
warehouse's cached description (the S–A–B–C prefix of step 2).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.actions import Action, ActionScope, ErrorPolicy
from repro.core.dag import ConfigDAG

__all__ = [
    "INVIGO_ACTIONS",
    "invigo_workspace_dag",
    "invigo_cached_prefix",
]


def _actions(username: str) -> Dict[str, Action]:
    """The nine Figure 3 actions, parameterized by the user."""
    return {
        "A": Action(
            "install-redhat-8.0",
            scope=ActionScope.HOST,
            command="install-os {distro}",
            params={"distro": "redhat-8.0"},
        ),
        "B": Action(
            "install-vnc-server",
            command="rpm -i {pkg}",
            params={"pkg": "vnc-server-3.3.rpm"},
            on_error=ErrorPolicy.RETRY,
            retries=2,
        ),
        "C": Action(
            "install-web-file-manager",
            command="rpm -i {pkg}",
            params={"pkg": "wfm-1.2.rpm"},
            on_error=ErrorPolicy.RETRY,
            retries=2,
        ),
        "D": Action(
            "configure-mac-ip",
            command="ifconfig eth0 {ip}",
            params={"ip": "$VMPLANT_IP"},
            outputs=("ip",),
        ),
        "E": Action(
            "create-user",
            command="useradd {user}",
            params={"user": username},
            outputs=("user_home",),
        ),
        "F": Action(
            "mount-home-directory",
            command="mount -t dvfs home://{user} /home/{user}",
            params={"user": username},
        ),
        "G": Action(
            "configure-vnc-server",
            command="vncconfig --user {user}",
            params={"user": username},
            outputs=("vnc_display",),
        ),
        "H": Action(
            "start-vnc-server",
            command="vncserver :1",
            outputs=("vnc_port",),
        ),
        "I": Action(
            "start-file-manager",
            command="wfm --daemon",
            on_error=ErrorPolicy.IGNORE,
        ),
    }


#: Label → action-name mapping for tests referencing Figure 3 letters.
INVIGO_ACTIONS: Dict[str, str] = {
    label: action.name for label, action in _actions("user").items()
}

#: Figure 3 edges (by label): the A–F chain, then F fans out to the
#: VNC configuration (G before H) and the file manager start (I).
_EDGES: Tuple[Tuple[str, str], ...] = (
    ("A", "B"),
    ("B", "C"),
    ("C", "D"),
    ("D", "E"),
    ("E", "F"),
    ("F", "G"),
    ("G", "H"),
    ("F", "I"),
)


def invigo_workspace_dag(username: str = "arijit") -> ConfigDAG:
    """The client-specified virtual-workspace DAG of Figure 3 (step 1)."""
    actions = _actions(username)
    return ConfigDAG.from_edges(
        [actions[label] for label in "ABCDEFGHI"],
        [(actions[u].name, actions[v].name) for u, v in _EDGES],
    )


def invigo_cached_prefix(username: str = "arijit") -> List[Action]:
    """The warehouse's cached description (Figure 3, step 2): the
    golden workspace image has RedHat, the VNC server and the Web file
    manager installed (S–A–B–C)."""
    actions = _actions(username)
    return [actions["A"], actions["B"], actions["C"]]
