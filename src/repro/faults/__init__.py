"""Deterministic fault injection and recovery (`repro.faults`).

The fault model the paper's resilience argument (Section 3.1)
implies but never tests: host crashes, warehouse/NFS outages, link
degradation and guest-daemon hangs, all scheduled deterministically
from seeded streams and replayable from a recorded plan — plus the
shop-side recovery ladder (deadlines, backoff re-bid, plant
quarantine) that survives them.  See ``experiments/chaos.py`` for
the policy-ladder sweep.
"""
