"""End-to-end and per-layer benchmark of the DISE reproduction.

Run one workload with ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root; see ``README.md`` in
this directory for the workloads, the metrics and the layer mapping.
"""
