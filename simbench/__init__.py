"""End-to-end benchmark of the simulator: six reference workloads.

``python -m simbench run`` measures every workload end to end (wall time,
set-up time, peak memory, output checks), ``python -m simbench run
--traced`` adds a per-layer breakdown, and ``python -m simbench check A B``
compares two result files.  See ``simbench/README.md``.
"""
