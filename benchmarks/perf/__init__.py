"""Simulated-time benchmarks of the data-movement and fault layers.

``comm_bench.py`` holds every makespan to the checked-in ``BENCH_comm.json``;
``faults_bench.py`` writes ``BENCH_faults.json``.  See docs/PERFORMANCE.md.
"""
