"""Calibration constants for the simulated SC'04 testbed.

Derived from the numbers the paper reports rather than guessed:

* the 2 GB golden disk (16 files) takes 210 s to copy in full over the
  100 Mbit/s NFS path — an effective ~11 MB/s link plus per-file
  overheads and the host-side write;
* 32 MB clones average ~15 s, 64 MB ~20 s and 256 MB ~52 s (Figure 5
  and the "around 4 times slower" comparison in Section 4.3), which
  the VMware fixed costs + memory-state copy + resume model below
  reproduces;
* cloning slows markedly once a host's committed VM memory approaches
  physical memory (Figure 6) — the pressure model;
* a 32 MB UML clone instantiated via full reboot averages 76 s.

All values are plain module constants so ablation benches can build
variant :class:`LatencyModel` instances.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["LatencyModel", "DEFAULT_LATENCY", "INTERNODE_MBPS"]


class LatencyModel(NamedTuple):
    """Tunable constants of the simulated substrate (seconds, MB/s)."""

    # -- NFS warehouse path ------------------------------------------------
    #: Effective NFS link throughput (100 Mbit/s minus protocol cost).
    nfs_link_mbps: float = 11.0
    #: Per-file open/attribute overhead on the NFS server.
    nfs_request_overhead_s: float = 0.25

    # -- physical host ----------------------------------------------------
    host_disk_write_mbps: float = 60.0
    host_disk_read_mbps: float = 80.0
    #: Host memory consumed by the host OS + VMM baseline.
    host_os_reserve_mb: float = 128.0
    #: VMM bookkeeping overhead per hosted VM.
    vmm_overhead_per_vm_mb: float = 24.0
    #: Committed-fraction beyond which cloning operations slow down.
    pressure_threshold: float = 0.80
    #: Slowdown slope: factor = 1 + slope * (utilization - threshold).
    pressure_slope: float = 7.0

    # -- VMware GSX production line -------------------------------------------
    #: Registration/config parsing/device setup per clone.
    vmware_clone_fixed_s: float = 2.5
    #: Fixed part of resuming a suspended VM.
    vmware_resume_fixed_s: float = 7.0
    #: Rate at which the resumed VM's memory image is re-read.
    vmware_resume_mbps: float = 25.0

    # -- UML production line -----------------------------------------------------
    #: Full guest boot after cloning (no checkpoint resume in the
    #: prototype's UML line).
    uml_boot_fixed_s: float = 72.0
    #: CoW backing-file setup per clone.
    uml_cow_setup_s: float = 0.8
    #: SBUML checkpoint resume (ongoing work in §4.1/§4.3): fixed part
    #: and memory re-read rate when cloning from a snapshot.
    uml_resume_fixed_s: float = 5.0
    uml_resume_mbps: float = 20.0

    # -- migration (Section 6 future work) ----------------------------------------
    #: Fixed suspend/resume machinery cost during a live migration.
    migrate_suspend_fixed_s: float = 2.0
    migrate_resume_fixed_s: float = 3.0

    # -- guest configuration path -----------------------------------------------
    iso_build_s: float = 0.6
    iso_connect_s: float = 0.4
    guest_mount_s: float = 0.5
    #: Mean execution time of one configuration script in the guest.
    guest_script_mean_s: float = 2.3

    # -- messaging ---------------------------------------------------------------
    #: One-way shop↔plant / client↔shop message latency.
    transport_latency_s: float = 0.05

    # -- stochastic variation ------------------------------------------------------
    #: Log-normal sigma applied to mechanical operations.
    op_jitter_sigma: float = 0.24
    #: Log-normal sigma for guest script execution.
    script_jitter_sigma: float = 0.5


#: The calibration used by all paper-reproduction experiments.
DEFAULT_LATENCY = LatencyModel()

#: The cluster's gigabit inter-node switch (Section 4.2) minus protocol
#: overhead, MB/s: the migration link, and each host's uplink when it
#: serves peers in a distribution tree.
INTERNODE_MBPS = 110.0
