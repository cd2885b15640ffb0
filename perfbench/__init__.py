"""End-to-end simulation benchmark: wall cost per committed request.

Run ``python3 perfbench/run.py --workload closed-wan --seed 1 --seconds 20
--trace 0`` from the repository root; see ``perfbench/README.md``.
"""
