"""The repository's benchmark: workloads, output checks and layer tracing.

Run ``python3 perfbench/run.py --help`` from the root of a checkout; see
``perfbench/README.md`` for the workloads and metrics.
"""
