"""Recorded benchmark sweeps (``*_bench.py``) and the smoke tests that
read them back (``test_*_smoke.py``)."""
