"""Discrete-event simulation substrate for the VMPlants reproduction.

This package provides the deterministic event-driven kernel
(:mod:`repro.sim.kernel`), shared-resource primitives
(:mod:`repro.sim.resources`), named random-number streams
(:mod:`repro.sim.rng`), and on top of those a model of the SC'04
experimental testbed: bandwidth-shared networks
(:mod:`repro.sim.network`), physical hosts with a memory-pressure model
(:mod:`repro.sim.host`), the NFS warehouse server
(:mod:`repro.sim.storage`), simulated VMware/UML production lines
(:mod:`repro.sim.hypervisor`), and the cluster builder
(:mod:`repro.sim.cluster`).
"""
