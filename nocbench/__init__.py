"""The repository benchmark: NI/NoC workloads, end-to-end and per-layer
metrics.  Run it with ``python3 nocbench/run.py --workload NAME``."""
