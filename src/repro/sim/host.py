"""Physical host model: memory accounting, pressure, local disk.

Each cluster node (dual-P4, 1.5 GB RAM in the paper's testbed) hosts
one VMPlant and its clones.  Two mechanisms matter for the measured
behaviour:

* **memory pressure** — once committed VM memory (guest sizes plus a
  per-VM VMM overhead and the host OS reserve) exceeds a threshold
  fraction of physical memory, memory-intensive operations (state
  copies, resume) slow down linearly, reproducing the load-dependent
  cloning-time growth of Figure 6;
* **local disk bandwidth** — clone state is written to, and resumed
  from, the node's SCSI disk.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Generator, Optional

from repro.core.errors import PlantError
from repro.sim.kernel import Environment
from repro.sim.latency import DEFAULT_LATENCY, LatencyModel

__all__ = ["HostStateCache", "PhysicalHost"]


class HostStateCache:
    """LRU cache of golden per-clone state on a host's local disk.

    Models the paper's warm-NFS-cache effect (Section 5): once a
    golden machine's configuration file, base redo log and suspended
    memory state have been pulled to a node, repeat clones of that
    image replicate them from the local disk instead of re-crossing
    the shared NFS link.  The cache is bounded by ``capacity_mb`` and
    evicts least-recently-cloned images first.

    The peer-distribution layer (``repro.distribution``) serves cached
    state to other hosts straight off this disk, so an entry may be
    :meth:`pin`-ned while a peer transfer reads it: pinned entries are
    skipped by the eviction scan (the next-least-recent unpinned entry
    goes instead), and an insert that cannot make room without
    touching a pinned entry is refused.  With no pins outstanding —
    every configuration without the distribution layer — behaviour is
    bit-identical to the plain LRU.
    """

    __slots__ = (
        "capacity_mb",
        "used_mb",
        "_entries",
        "_pins",
        "hits",
        "misses",
        "evictions",
        "eviction_refusals",
    )

    def __init__(self, capacity_mb: float):
        if capacity_mb <= 0:
            raise ValueError("capacity_mb must be positive")
        self.capacity_mb = capacity_mb
        self.used_mb = 0.0
        #: image_id → cached state size (MB), LRU-ordered (MRU last).
        self._entries: "OrderedDict[str, float]" = OrderedDict()
        #: image_id → outstanding pin count (in-progress peer serves).
        self._pins: Dict[str, int] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Inserts refused because only pinned entries were evictable.
        self.eviction_refusals = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, image_id: str) -> bool:
        return image_id in self._entries

    def lookup(self, image_id: str) -> bool:
        """Is the image's clone state cached?  Counts and touches."""
        if image_id in self._entries:
            self._entries.move_to_end(image_id)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def insert(self, image_id: str, size_mb: float) -> bool:
        """Admit (or refresh) an image; evicts LRU entries to fit.

        Returns False when the state is larger than the whole budget
        (it is not admitted — full-disk COPY payloads usually are).
        """
        if size_mb < 0:
            raise ValueError("size_mb must be non-negative")
        if size_mb > self.capacity_mb:
            return False
        previous = self._entries.pop(image_id, None)
        if previous is not None:
            self.used_mb -= previous
        while self.used_mb + size_mb > self.capacity_mb and self._entries:
            if not self._pins:
                victim, evicted_mb = self._entries.popitem(last=False)
            else:
                victim = next(
                    (
                        k
                        for k in self._entries
                        if not self._pins.get(k)
                    ),
                    None,
                )
                if victim is None:
                    # Every remaining entry is mid-serve: refuse the
                    # insert rather than yank bytes out from under a
                    # peer transfer (restore any refreshed entry).
                    self.eviction_refusals += 1
                    if previous is not None:
                        self._entries[image_id] = previous
                        self.used_mb += previous
                    return False
                evicted_mb = self._entries.pop(victim)
            self.used_mb -= evicted_mb
            self.evictions += 1
        self._entries[image_id] = size_mb
        self.used_mb += size_mb
        return True

    # -- peer-serve pinning ----------------------------------------------
    def pin(self, image_id: str) -> None:
        """Protect an entry from eviction while a peer serve reads it."""
        self._pins[image_id] = self._pins.get(image_id, 0) + 1

    def unpin(self, image_id: str) -> None:
        """Drop one pin (missing entries are ignored: a crash may have
        cleared the cache while the serve was unwinding)."""
        count = self._pins.get(image_id)
        if count is None:
            return
        if count <= 1:
            del self._pins[image_id]
        else:
            self._pins[image_id] = count - 1

    def pinned(self, image_id: str) -> bool:
        """Is the entry currently protected by an in-progress serve?"""
        return bool(self._pins.get(image_id))

    def clear(self) -> int:
        """Drop every cached entry (host crash: local disk state is
        gone); returns how many entries were invalidated."""
        dropped = len(self._entries)
        self._entries.clear()
        self._pins.clear()
        self.used_mb = 0.0
        return dropped

    def __repr__(self) -> str:
        return (
            f"<HostStateCache {self.used_mb:.0f}/{self.capacity_mb:.0f}MB"
            f" entries={len(self._entries)} hits={self.hits}>"
        )


class PhysicalHost:
    """One cluster node."""

    def __init__(
        self,
        env: Environment,
        name: str,
        memory_mb: float = 1536.0,
        cpus: int = 2,
        latency: LatencyModel = DEFAULT_LATENCY,
        state_cache: Optional[HostStateCache] = None,
    ):
        if memory_mb <= 0:
            raise ValueError("memory_mb must be positive")
        if cpus <= 0:
            raise ValueError("cpus must be positive")
        self.env = env
        self.name = name
        self.memory_mb = memory_mb
        self.cpus = cpus
        self.latency = latency
        #: Optional LRU golden-state cache shared by this host's
        #: production lines (None = paper behaviour, every clone pays
        #: the warehouse transfer).
        self.state_cache = state_cache
        #: Guest memory of admitted VMs (MB), excluding overheads.
        self.committed_guest_mb = 0.0
        self.vm_count = 0
        #: Crash state (fault injection): production stages abort
        #: while the host is down.
        self.down = False
        self.crashes = 0

    # -- fault injection -----------------------------------------------------
    def crash(self) -> None:
        """Mark the node as crashed (resident VMs die with it)."""
        if not self.down:
            self.down = True
            self.crashes += 1

    def restore(self) -> None:
        """Bring the node back after a crash."""
        self.down = False

    # -- memory accounting ---------------------------------------------------
    def admit_vm(self, guest_mb: float) -> None:
        """Account for a new VM's memory footprint."""
        if guest_mb <= 0:
            raise PlantError(f"host {self.name}: bad guest size {guest_mb}")
        self.committed_guest_mb += guest_mb
        self.vm_count += 1

    def release_vm(self, guest_mb: float) -> None:
        """Return a collected VM's memory."""
        if self.vm_count <= 0 or self.committed_guest_mb < guest_mb - 1e-9:
            raise PlantError(
                f"host {self.name}: releasing more memory than committed"
            )
        self.committed_guest_mb -= guest_mb
        self.vm_count -= 1

    def utilization(self) -> float:
        """Committed fraction of physical memory (incl. overheads)."""
        lat = self.latency
        used = (
            lat.host_os_reserve_mb
            + self.committed_guest_mb
            + lat.vmm_overhead_per_vm_mb * self.vm_count
        )
        return used / self.memory_mb

    def pressure_factor(self) -> float:
        """Slowdown multiplier for memory-intensive operations (≥ 1)."""
        util = self.utilization()
        lat = self.latency
        if util <= lat.pressure_threshold:
            return 1.0
        return 1.0 + lat.pressure_slope * (util - lat.pressure_threshold)

    # -- local disk -------------------------------------------------------------
    def disk_write(self, size_mb: float, pressured: bool = True) -> Generator:
        """Write ``size_mb`` to the node's local disk."""
        factor = self.pressure_factor() if pressured else 1.0
        yield size_mb / self.latency.host_disk_write_mbps * factor

    def disk_read(self, size_mb: float, pressured: bool = True) -> Generator:
        """Read ``size_mb`` from the node's local disk."""
        factor = self.pressure_factor() if pressured else 1.0
        yield size_mb / self.latency.host_disk_read_mbps * factor

    def __repr__(self) -> str:
        return (
            f"<PhysicalHost {self.name} vms={self.vm_count}"
            f" util={self.utilization():.2f}>"
        )
