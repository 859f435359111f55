"""The repository benchmark: three workloads, end-to-end and per-layer.

Run it from the root of a checkout::

    python3 perfbench/run.py --workload batch_closed --seed 1 --seconds 20 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and the rules
the numbers follow.
"""
