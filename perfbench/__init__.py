"""Repository benchmark: four workloads, end-to-end metrics, traced layers.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the repository root; ``BENCHMARK.json`` lists the workloads and metrics.
"""
