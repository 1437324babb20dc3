"""Wall-clock benchmark of the linear-forest library.

Run ``python3 perfbench/run.py --help`` from the repository root.  The
workloads live in :mod:`perfbench.workloads`, the output checks in
:mod:`perfbench.verify` and the traced run's per-layer attribution in
:mod:`perfbench.layers`.
"""
