"""Outside-in benchmark of the wickllt command line and its modules.

Run one workload with ``python3 perfbench/run.py --workload NAME``; see
``perfbench/README.md`` for the workloads, the metrics and a baseline.
"""
