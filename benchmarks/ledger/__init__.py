"""The perf ledger: socket-to-allocation latency with per-layer attribution.

See ``benchmarks/ledger/README.md``.  Entry points: ``python
benchmarks/ledger/run.py`` (the ``BENCHMARK.json`` command) or
``PYTHONPATH=src python -m benchmarks.ledger``.
"""
