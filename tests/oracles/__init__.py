"""Reference implementations the live code is held to.

Each module here is a superseded implementation kept as the oracle of
a differential test: slower or simpler than what ``src/`` runs, and
not imported by it.
"""
