"""Persistent performance harness (``repro bench``).

Times the library's headline algorithms — `D_prefix`, `D_sort`, the
blocked large-input variants, and the random-traffic experiment — across
their backends (engine, columnar, compiled replay), the
open-loop serving scenarios, and a range of network sizes, and writes a
machine-readable
``BENCH_core.json`` so every change leaves a measured perf trajectory
behind (wallclock, comm/comp steps, messages, peak payload).
``compare_bench`` turns two such files into a regression check: cost
counters must match exactly, wallclock within a factor;
``compare_bench_detailed`` returns the same findings as structured
:class:`~repro.perf.bench.BenchRegression` records naming exactly which
counter moved.
"""

from repro.perf.bench import (
    BenchRecord,
    BenchRegression,
    compare_bench,
    compare_bench_detailed,
    load_bench,
    merge_bench,
    run_bench,
    run_bench_columnar,
    run_bench_replay,
    run_bench_serving,
    write_bench,
)

__all__ = [
    "BenchRecord",
    "BenchRegression",
    "compare_bench",
    "compare_bench_detailed",
    "load_bench",
    "merge_bench",
    "run_bench",
    "run_bench_columnar",
    "run_bench_replay",
    "run_bench_serving",
    "write_bench",
]
