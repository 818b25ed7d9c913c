"""Analysis utilities for experiment results.

Import the leaf module you need: :mod:`repro.analysis.streaming`
(standard library only, part of the library layer) or the report
modules ``stats`` / ``histograms`` (numpy-backed) and ``tables``.
This package re-exports nothing, so a run that only streams summaries
never loads numpy (DESIGN.md, "Process footprint & import layering").
"""
