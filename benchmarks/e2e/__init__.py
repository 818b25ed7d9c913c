"""The end-to-end benchmark of this repository.

One command (``benchmarks/e2e/run.py``), five named workloads, twelve
end-to-end metrics on two clocks (host time and simulated time), and a
per-layer attribution taken from outside the program through public
callables.  ``BENCHMARK.json`` at the repository root is the driver
contract; ``README.md`` in this directory is the human one.
"""
