"""Real-filesystem substrate: directory-backed VMs.

Where :mod:`repro.sim` *models* the hypervisor, this package does the
actual mechanics on disk so the full control path can be exercised for
real: golden images are directories of real files
(:mod:`repro.local.image`), cloning soft-links the base disk and
replicates small state exactly as the VMware production line does, and
configuration scripts run as genuine ``sh`` subprocesses inside the
clone's guest directory (:mod:`repro.local.localline`).
"""
