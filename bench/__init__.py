"""The repository's benchmark: four workloads over the real request path.

See ``bench/README.md``.  One command, run from the repository root::

    python3 bench/run.py --workload serve_direct --seed 7 --seconds 14 --trace 0

Everything here drives public entry points of ``src/repro`` only.
"""
