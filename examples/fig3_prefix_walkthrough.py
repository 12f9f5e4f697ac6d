"""Figure 3 walkthrough: prefix sums on D_3, panel by panel.

Reproduces the paper's Figure 3 — the six intermediate states (a)-(f) of
Algorithm 2 computing Prefix_sum([1..32]) on the 32-node dual-cube —
rendered cluster by cluster exactly as the figure annotates them.

Run:  python examples/fig3_prefix_walkthrough.py
"""

import numpy as np

from repro import ADD, DualCube, TraceRecorder
from repro.core.dual_prefix import dual_prefix

CAPTIONS = {
    "(a) input": "Original data distribution (node u holds c[u*])",
    "(b) cluster prefix s": "Step 1 - prefix inside each cluster (s)",
    "(b) cluster total t": "Step 1 - cluster totals (t)",
    "(c) cross total temp": "Step 2 - exchange t via cross-edge",
    "(d) block-prefix s'": "Step 3 - diminished prefix of received totals (s')",
    "(d) half total t'": "Step 3 - half totals (t')",
    "(e) after s' fold": "Step 4 - get s' and prefix one time",
    "(f) final prefix": "Step 5 - final result (class 1 adds t')",
}


def render(dc: DualCube, values) -> str:
    lines = []
    for cls in (0, 1):
        cells = []
        for k in range(dc.clusters_per_class):
            members = dc.cluster_members(cls, k)
            cells.append("[" + " ".join(f"{values[u]:>3}" for u in members) + "]")
        lines.append(f"  class {cls}:  " + "  ".join(cells))
    return "\n".join(lines)


def main() -> None:
    dc = DualCube(3)
    values = np.arange(1, 33)
    trace = TraceRecorder()
    result = dual_prefix(dc, values, ADD, trace=trace)

    print("Prefix_sum([1,2,...,32]) =")
    print(f"  {list(result)}")
    print()
    print(f"Each cluster shown as [node0 node1 node2 node3] by node ID;")
    print(f"clusters left to right are cluster 0..{dc.clusters_per_class - 1}.")
    for label in trace.labels():
        print()
        print(f"{label} — {CAPTIONS[label]}")
        print(render(dc, trace.snapshot(label, dc.num_nodes)))

    expected = [k * (k + 1) // 2 for k in range(1, 33)]
    assert list(result) == expected
    print()
    print("verified: result equals the triangular numbers 1, 3, 6, ..., 528")


if __name__ == "__main__":
    main()
