"""The repository's benchmark: workloads, load generator and layer tracing.

Run ``python3 perfbench/run.py --help`` from the repository root.
"""
