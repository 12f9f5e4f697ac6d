"""Sorting showcase: Figures 5-6 plus order-statistics applications.

Part 1 replays the paper's Figures 5-6: D_sort on D_3 first generates a
bitonic sequence (four alternately sorted D_2 copies, then the half
merge), then sorts it with the final merge.  Part 2 uses the sorted
network for the classic payoffs: quantiles, top-k, and histograms of a
distributed dataset.

Run:  python examples/sorting_showcase.py
"""

import numpy as np

from repro import RecursiveDualCube, TraceRecorder
from repro.apps import parallel_histogram, parallel_quantiles, parallel_top_k
from repro.core.bitonic import is_bitonic
from repro.core.dual_sort import dual_sort


def show(state, note=""):
    cells = " ".join(f"{v:>2}" for v in state)
    print(f"  {cells}   {note}")


def main() -> None:
    rdc = RecursiveDualCube(3)
    rng = np.random.default_rng(2008)
    keys = rng.permutation(32)

    trace = TraceRecorder()
    out = dual_sort(rdc, keys, trace=trace)
    labels = list(trace.labels())

    print("=== Figure 5: generate a bitonic sequence in D_3 ===")
    show(trace.snapshot("input", 32), "input keys")
    # End of the recursive sub-sorts: copies sorted asc/desc/asc/desc.
    first_hm = next(i for i, l in enumerate(labels) if "half-merge D_3" in l)
    show(
        trace.snapshot(labels[first_hm - 1], 32),
        "after the four D_2 sorts (asc | desc | asc | desc)",
    )
    hm_end = [l for l in labels if "half-merge D_3" in l][-1]
    state = trace.snapshot(hm_end, 32)
    show(state, "after the half merge: one bitonic sequence")
    assert is_bitonic(state)

    print()
    print("=== Figure 6: sort the bitonic sequence ===")
    for l in labels:
        if "full-merge D_3" in l:
            show(trace.snapshot(l, 32), l.split("[")[0].strip())
    assert list(out) == list(range(32))
    print()
    print("sorted:", list(out))

    print()
    print("=== Order statistics on the sorted network ===")
    data = rng.normal(loc=50.0, scale=15.0, size=32)
    qs = parallel_quantiles(rdc, data, [0.1, 0.5, 0.9])
    print(f"deciles of N(50, 15) sample: p10={qs[0]:.1f} "
          f"median={qs[1]:.1f} p90={qs[2]:.1f}")
    top = parallel_top_k(rdc, data, 3)
    print(f"top-3: {[round(float(v), 1) for v in top]}")
    hist = parallel_histogram(rdc, data, [0, 25, 50, 75, 100])
    print(f"histogram over [0,25,50,75,100]: {[int(c) for c in hist]}")
    assert hist.sum() <= 32


if __name__ == "__main__":
    main()
