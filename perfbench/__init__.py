"""The repository benchmark: five workloads, end-to-end and per-layer.

See ``perfbench/README.md``; the entry point ``BENCHMARK.json`` names is
``perfbench/run.py``.
"""
