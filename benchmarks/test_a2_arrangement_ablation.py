"""A2 — ablation: why D_prefix needs the u* data arrangement.

The paper arranges inputs so each cluster holds a *consecutive* block of
c (class-1 nodes hold c[u*], with the two address fields swapped).  This
ablation runs the identical communication schedule with the arrangement
disabled: the outputs are then the prefix of a *permuted* sequence, wrong
at a large fraction of positions — quantified here per n.

Expected shape: with arrangement, 0 mismatches; without, the error
fraction is large (the permutation moves every class-1 item whose fields
differ) and grows with n toward 50% of positions being held by class-1
nodes with misplaced blocks.
"""

import numpy as np
import pytest

from repro.analysis.tables import format_table
from repro.core.arrangement import arranged_index_v
from repro.core.dual_prefix import dual_prefix
from repro.core.ops import ADD
from repro.core.verify import sequential_prefix
from repro.topology import DualCube

from benchmarks._util import emit


def without_arrangement(dc: DualCube, vals: np.ndarray) -> np.ndarray:
    """Run the schedule with node u holding c[u] directly (no swap).

    Feeding the inverse-arranged sequence makes the library's internal
    ``arrange`` a no-op, so node u holds ``vals[u]`` — the ablated layout.
    The output is read back in plain node order for comparison.
    """
    inv = np.empty(dc.num_nodes, dtype=np.int64)
    arr_idx = arranged_index_v(dc)
    inv[arr_idx] = np.arange(dc.num_nodes)
    pre = dual_prefix(dc, vals[inv], ADD)
    return pre[inv]  # value that ended up at node u, in node order


def ablation_rows():
    rows = []
    for n in range(1, 7):
        dc = DualCube(n)
        rng = np.random.default_rng(n)
        vals = rng.integers(1, 1000, dc.num_nodes)
        truth = sequential_prefix(list(vals), ADD)
        with_arr = dual_prefix(dc, vals, ADD)
        miss_with = sum(1 for a, b in zip(with_arr, truth) if a != b)
        ablated = without_arrangement(dc, vals)
        miss_without = sum(1 for a, b in zip(ablated, truth) if a != b)
        rows.append(
            (
                n,
                dc.num_nodes,
                miss_with,
                miss_without,
                round(miss_without / dc.num_nodes, 3),
            )
        )
    return rows


def test_arrangement_ablation(benchmark):
    rows = benchmark.pedantic(ablation_rows, rounds=1, iterations=1)
    emit(
        "A2_arrangement_ablation",
        format_table(
            ["n", "nodes", "mismatches (with u*)", "mismatches (without)", "error fraction"],
            rows,
            title="A2: dropping the data arrangement breaks the prefix",
        ),
    )
    for n, _, with_arr, without_arr, frac in rows:
        assert with_arr == 0
        if n >= 2:
            assert without_arr > 0
            assert frac >= 0.25  # a large fraction of positions is wrong
        if n >= 3:
            assert frac > 0.3


def test_ablated_result_is_still_a_prefix_of_the_permuted_input(benchmark):
    """The ablation fails *only* through data placement: the computed
    values are exactly the prefix of the arranged permutation."""
    dc = DualCube(3)
    vals = np.random.default_rng(0).integers(1, 100, 32)

    def run():
        inv = np.empty(32, dtype=np.int64)
        inv[arranged_index_v(dc)] = np.arange(32)
        return dual_prefix(dc, vals[inv], ADD)

    pre = benchmark(run)
    inv = np.empty(32, dtype=np.int64)
    inv[arranged_index_v(dc)] = np.arange(32)
    assert list(pre) == sequential_prefix(list(vals[inv]), ADD)
