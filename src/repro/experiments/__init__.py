"""Experiment drivers reproducing the paper's evaluation.

One module per artifact: Figures 4–6, the UML study, the Section 3.4
cost-function illustration, the in-text numbers of Section 4.3, and
the ablations DESIGN.md calls out.  Benchmarks under ``benchmarks/``
are thin wrappers that run these and print paper-style tables.

The performance layer lives here too: :mod:`repro.experiments.
parallel` fans independent runs out across a process pool with a
deterministic merge, and :mod:`repro.experiments.cache` memoizes
results on disk keyed by (experiment id, parameters, seed, source
digest).

Import the leaf module you need; this package re-exports nothing, so
:mod:`repro.experiments.runner` (library layer) loads without the
report layer's numpy and process pools (DESIGN.md, "Process footprint
& import layering").
"""
