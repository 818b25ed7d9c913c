"""The recorded benches (``bench.py``), their smoke tests
(``test_bench.py``) and the A/B tool (``ab.py``)."""
