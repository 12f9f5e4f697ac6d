"""E8 — Section 6's 3-hop compare-exchange claim, audited per dimension.

For every dimension of D_3/D_4: exactly half the pairs lack a direct link;
their exchanges route (cross, intra, cross) in 3 hops; under the 1-port
model the parallel step completes in 3 time-units if and only if the
middle hop packs two keys per message (the paper's accounting), and in
4 time-units with strict one-key messages — the reconstruction note this
reproduction documents.
"""

from collections import Counter

import numpy as np
import pytest

from repro.analysis.tables import format_table
from repro.core.dual_sort import ScheduleStep, _compare_exchange_program, step_cycle_cost
from repro.simulator import Engine, Packed
from repro.topology import RecursiveDualCube

from benchmarks._util import emit


def run_one_dim(rdc, dim, policy):
    rng = np.random.default_rng(dim)
    keys = [int(k) for k in rng.integers(0, 100, rdc.num_nodes)]
    step = ScheduleStep(dim, "const", 0)

    def program(ctx):
        key = yield from _compare_exchange_program(ctx, rdc, step, keys[ctx.rank], policy)
        return key

    return keys, Engine(rdc, program, log_messages=True).run()


def hop_table_rows(n: int):
    rdc = RecursiveDualCube(n)
    rows = []
    for dim in rdc.dimensions():
        one = sum(1 for u in rdc.nodes() if rdc.exchange_hops(u, dim) == 1)
        three = rdc.num_nodes - one
        rows.append(
            (
                dim,
                "even" if dim % 2 == 0 else "odd",
                one,
                three,
                step_cycle_cost(rdc, dim, "packed"),
                step_cycle_cost(rdc, dim, "single"),
            )
        )
    return rows


@pytest.mark.parametrize("n", [3, 4])
def test_hop_histogram(benchmark, n):
    rows = benchmark.pedantic(hop_table_rows, args=(n,), rounds=1, iterations=1)
    emit(
        f"E8_hop_histogram_n{n}",
        format_table(
            ["dim", "parity", "1-hop nodes", "3-hop nodes", "cycles (packed)", "cycles (single)"],
            rows,
            title=f"D_{n}: per-dimension compare-exchange cost",
        ),
    )
    V = 2 ** (2 * n - 1)
    for dim, _, one, three, packed, single in rows:
        if dim == 0:
            assert one == V and three == 0 and packed == 1
        else:
            assert one == three == V // 2  # paper: "only half of the pairs"
            assert packed == 3 and single == 4


@pytest.mark.parametrize("policy,expect_cycles", [("packed", 3), ("single", 4)])
def test_one_port_schedule_audit(benchmark, policy, expect_cycles):
    """Independent audit via the raw message log: 1-port discipline holds
    and the step finishes in the claimed number of cycles."""
    rdc = RecursiveDualCube(3)

    def run():
        return run_one_dim(rdc, 3, policy)

    keys, res = benchmark(run)
    assert res.comm_steps == expect_cycles
    per_cycle_src = Counter((m.cycle, m.src) for m in res.message_log)
    per_cycle_dst = Counter((m.cycle, m.dst) for m in res.message_log)
    assert all(v == 1 for v in per_cycle_src.values())
    assert all(v == 1 for v in per_cycle_dst.values())
    for m in res.message_log:
        assert rdc.has_edge(m.src, m.dst)
    packed_msgs = [m for m in res.message_log if isinstance(m.payload, Packed)]
    if policy == "packed":
        assert len(packed_msgs) == rdc.num_nodes // 2
        assert all(len(m.payload) == 2 for m in packed_msgs)
    else:
        assert not packed_msgs
    # Every pair still computes the correct compare-exchange.
    for u in rdc.nodes():
        v = u ^ (1 << 3)
        lo, hi = sorted((keys[u], keys[v]))
        assert res.returns[u] == (lo if (u >> 3) & 1 == 0 else hi)


def test_policy_cost_comparison(benchmark):
    """Whole-sort cost under both payload policies (the reconstruction note)."""
    from repro.analysis.complexity import dual_sort_comm_exact, theorem2_comm_bound
    from repro.core.dual_sort import dual_sort
    from repro.simulator import CostCounters

    def rows():
        out = []
        for n in range(1, 8):
            packed = dual_sort_comm_exact(n, payload_policy="packed")
            single = dual_sort_comm_exact(n, payload_policy="single")
            out.append((n, packed, single, theorem2_comm_bound(n)))
        return out

    table = benchmark(rows)
    emit(
        "E8_payload_policy_costs",
        format_table(
            ["n", "comm (packed, 2-key msgs)", "comm (single, 1-key msgs)", "paper bound"],
            table,
            title="1-port schedules: the paper's 3-unit step needs 2-key messages",
        ),
    )
    for n, packed, single, bound in table:
        assert packed <= bound
        assert single >= packed
    # The strict-single cost exceeds the paper bound once n >= 3 — evidence
    # that the paper's accounting presumes packed messages (or multi-port).
    assert table[3][2] > table[3][3]
