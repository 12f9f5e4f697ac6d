"""A4 — the paper's two design techniques head-to-head on one problem.

The conclusion's argument: the cluster technique gives optimal or
near-optimal algorithms when the inter-cluster communication can be
designed directly (D_prefix), while the recursive/emulation technique is
generic but pays up to 3x.  This experiment computes the *same* parallel
prefix both ways:

* technique 1 (cluster): `D_prefix` — 2n steps;
* technique 2 (emulation): `Cube_prefix` run via the generic 3-hop
  dimension-exchange emulator — 6n-5 steps.

Expected shape: identical results (up to the scan order each technique
defines); emulation/cluster step ratio grows from 1.0 toward 3.
"""

import numpy as np
import pytest

from repro.analysis.complexity import dual_prefix_comm_exact
from repro.analysis.tables import format_table
from repro.core.dual_prefix import dual_prefix
from repro.core.emulation import emulated_cube_prefix, emulated_cube_prefix_vec
from repro.core.ops import ADD
from repro.simulator import CostCounters
from repro.topology import DualCube, RecursiveDualCube

from benchmarks._util import emit


def comparison_rows():
    rows = []
    for n in range(1, 8):
        dc = DualCube(n)
        rdc = RecursiveDualCube(n)
        rng = np.random.default_rng(n)
        vals = rng.integers(0, 1000, dc.num_nodes)

        c_cluster = CostCounters(dc.num_nodes)
        out_cluster = dual_prefix(dc, vals, ADD, counters=c_cluster)
        assert list(out_cluster) == list(np.cumsum(vals))

        c_emu = CostCounters(rdc.num_nodes)
        _, out_emu = emulated_cube_prefix_vec(rdc, vals, ADD, counters=c_emu)
        assert list(out_emu) == list(np.cumsum(vals))

        rows.append(
            (
                n,
                dc.num_nodes,
                c_cluster.comm_steps,
                c_emu.comm_steps,
                round(c_emu.comm_steps / c_cluster.comm_steps, 3),
            )
        )
    return rows


def test_technique_comparison_table(benchmark):
    rows = benchmark.pedantic(comparison_rows, rounds=1, iterations=1)
    emit(
        "A4_technique_comparison",
        format_table(
            [
                "n",
                "nodes",
                "cluster technique (D_prefix)",
                "emulation technique",
                "emulation/cluster",
            ],
            rows,
            title="A4: prefix by the paper's two techniques — designed "
            "inter-cluster communication vs generic 3-hop emulation",
        ),
    )
    prev = 0.0
    for n, _, cluster, emu, ratio in rows:
        assert cluster == dual_prefix_comm_exact(n)
        assert emu == 6 * n - 5
        assert ratio >= prev  # grows monotonically toward 3
        prev = ratio
        assert ratio < 3.0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_engine_validates_emulated_prefix(benchmark, n):
    rdc = RecursiveDualCube(n)
    rng = np.random.default_rng(n)
    vals = [int(x) for x in rng.integers(0, 100, rdc.num_nodes)]

    def run():
        return emulated_cube_prefix(rdc, vals, ADD)

    t, s, res = benchmark(run)
    assert s == list(np.cumsum(vals))
    assert res.comm_steps == 6 * n - 5
