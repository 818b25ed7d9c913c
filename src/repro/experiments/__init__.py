"""Experiment drivers reproducing the paper's evaluation.

One module per artifact: Figures 4–6, the UML study, the Section 3.4
cost-function illustration, the in-text numbers of Section 4.3, and
the ablations DESIGN.md calls out.  Benchmarks under ``benchmarks/``
are thin wrappers that run these and print paper-style tables.

Every driver runs in process and uncached: the whole paper suite
simulates in about 0.2 s.

Import the leaf module you need; this package re-exports nothing, so
:mod:`repro.experiments.runner` (library layer) loads without the
report layer's numpy (DESIGN.md, "Process footprint & import
layering").
"""
