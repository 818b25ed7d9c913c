"""The VMPlant service: PPP, warehouse, production lines, monitoring.

Mirrors Figure 2 of the paper.  A :class:`~repro.plant.vmplant.VMPlant`
daemon runs on every physical resource and wires together:

* the Production Process Planner (:mod:`repro.plant.ppp`) that matches
  creation requests against warehouse images and plans clone+configure;
* the VM Warehouse (:mod:`repro.plant.warehouse`) of golden images;
* one production line per supported VM technology
  (:mod:`repro.plant.production` defines the interface; simulated
  VMware/UML lines live in :mod:`repro.sim.hypervisor`, a real
  filesystem-backed line in :mod:`repro.local.localline`);
* the VM Information System (:mod:`repro.plant.infosys`) and run-time
  monitor (:mod:`repro.plant.monitor`).
"""
