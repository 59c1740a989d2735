"""End-to-end benchmark for the Pequod reproduction, with a traced
per-layer breakdown.  Run ``python3 perfbench/run.py --help``; see
``perfbench/README.md`` for the workloads and metrics."""
