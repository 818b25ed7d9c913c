"""Run-time VM monitor.

A small daemon process (Figure 2, "VM monitor") that periodically
refreshes dynamic attributes — uptime, status, count of configuration
actions — in each active VM's classad, so shop queries observe fresh
state without the shop holding any of it.
"""

from __future__ import annotations

from typing import Generator, List, Optional

from repro.core.errors import ReproError
from repro.plant.infosys import VMInformationSystem
from repro.plant.production import VMStatus
from repro.sim.kernel import Environment, Interrupt, Process

__all__ = ["VMMonitor"]


class VMMonitor:
    """Periodic classad refresher for one plant."""

    def __init__(
        self,
        env: Environment,
        infosys: VMInformationSystem,
        period: float = 30.0,
    ):
        if period <= 0:
            raise ValueError("period must be positive")
        self.env = env
        self.infosys = infosys
        self.period = period
        self.sweeps = 0
        #: vmids whose refresh raised (e.g. removed mid-sweep by a
        #: crash); the sweep keeps going.
        self.failed: List[str] = []
        self._proc: Optional[Process] = None

    def start(self) -> Process:
        """Launch the monitoring process."""
        if self._proc is not None and self._proc.is_alive:
            return self._proc
        self._proc = self.env.process(self._run())
        return self._proc

    def stop(self) -> None:
        """Terminate the monitoring process."""
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt("monitor stopped")

    def sweep(self) -> None:
        """One immediate refresh pass over all active VMs.

        A VM torn down mid-sweep (host crash, concurrent destroy) is
        recorded in :attr:`failed` instead of aborting the pass.
        """
        now = self.env.now
        for vm in list(self.infosys.active()):
            started = vm.classad.get("created_at")
            attrs = {
                "status": vm.status.value,
                "monitored_at": now,
                "actions_completed": len(vm.results),
            }
            if isinstance(started, (int, float)) and vm.status is VMStatus.RUNNING:
                attrs["uptime"] = now - float(started)
            try:
                self.infosys.update(vm.vmid, attrs)
            except ReproError:
                self.failed.append(vm.vmid)
        self.sweeps += 1

    def _run(self) -> Generator:
        try:
            while True:
                yield self.period
                self.sweep()
        except Interrupt:
            return
