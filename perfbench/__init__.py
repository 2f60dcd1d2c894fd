"""End-to-end benchmark of the SUNMAP flows and the design service.

Run one workload with::

    python3 perfbench/run.py --workload paper_flows --seed 1 --seconds 15 --trace 0

``BENCHMARK.json`` at the repository root lists the workloads and the
metrics; :mod:`perfbench.run` documents the command line and the output.
"""
