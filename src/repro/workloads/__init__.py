"""Workload builders: request streams and canonical DAGs
(:mod:`repro.workloads.requests`, :mod:`repro.workloads.invigo`), lazy
trace-driven arrival processes (:mod:`repro.workloads.traces`) and the
``megaload`` arrival source with its merge helpers
(:mod:`repro.workloads.megaload`).

Import the leaf module you need; like every package here this one
re-exports nothing (DESIGN.md, "Process footprint & import layering").
"""
