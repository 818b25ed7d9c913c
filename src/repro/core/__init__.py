"""Core VMPlants contribution: configuration DAGs, matching, classads.

This package holds everything from Sections 3.1–3.2 of the paper that
is independent of any particular substrate: the action/DAG
configuration model (:mod:`repro.core.actions`, :mod:`repro.core.dag`),
XML service encodings (:mod:`repro.core.dagxml`), the classad
attribute store and expression language (:mod:`repro.core.classad`),
machine specifications (:mod:`repro.core.spec`), and the three-part
golden-image matching criterion (:mod:`repro.core.matching`).
"""
