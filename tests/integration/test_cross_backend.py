"""Cross-backend integration: the cycle-accurate engine and the default
(columnar) backend must agree bit-for-bit on results *and* on every cost counter, for
every algorithm, at every size tested."""

import numpy as np
import pytest

from repro import (
    ADD,
    CONCAT,
    DualCube,
    RecursiveDualCube,
)
from repro.core.bitonic import hypercube_bitonic_sort
from repro.core.dual_prefix import dual_prefix, dual_prefix_engine
from repro.core.dual_sort import dual_sort, dual_sort_engine
from repro.routing import allreduce_engine, allreduce_vec
from repro.simulator import CostCounters


def _counters_agree(vec_counters, engine_result):
    e = engine_result.counters
    assert vec_counters.comm_steps == e.comm_steps
    assert vec_counters.comp_steps == e.comp_steps
    assert vec_counters.messages == e.messages
    assert vec_counters.payload_items == e.payload_items
    assert vec_counters.max_message_payload == e.max_message_payload


@pytest.mark.parametrize("n", [1, 2, 3])
class TestPrefixParity:
    def test_results_and_counters(self, n, rng):
        dc = DualCube(n)
        vals = np.empty(dc.num_nodes, dtype=object)
        vals[:] = [(int(x),) for x in rng.integers(0, 99, dc.num_nodes)]
        for paper_literal in (False, True):
            for inclusive in (True, False):
                pre_e, res = dual_prefix_engine(
                    dc, vals, CONCAT, inclusive=inclusive, paper_literal=paper_literal
                )
                c = CostCounters(dc.num_nodes)
                pre_v = dual_prefix(
                    dc,
                    vals,
                    CONCAT,
                    inclusive=inclusive,
                    paper_literal=paper_literal,
                    counters=c,
                )
                assert list(pre_e) == list(pre_v)
                _counters_agree(c, res)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("policy", ["packed", "single"])
class TestSortParity:
    def test_results_and_counters(self, n, policy, rng):
        rdc = RecursiveDualCube(n)
        keys = rng.integers(0, 999, rdc.num_nodes)
        for descending in (False, True):
            out_e, res = dual_sort_engine(
                rdc,
                [int(k) for k in keys],
                descending=descending,
                payload_policy=policy,
            )
            c = CostCounters(rdc.num_nodes)
            out_v = dual_sort(
                rdc, keys, descending=descending, payload_policy=policy, counters=c
            )
            assert out_e == list(out_v)
            _counters_agree(c, res)


@pytest.mark.parametrize("q", [1, 2, 3, 4])
class TestHypercubeSortParity:
    def test_results_and_counters(self, q, rng):
        keys = rng.integers(0, 999, 1 << q)
        out_e, res = hypercube_bitonic_sort(
            [int(k) for k in keys], backend="engine"
        )
        c = CostCounters(1 << q)
        out_v = hypercube_bitonic_sort(keys, counters=c)
        assert out_e == list(out_v)
        _counters_agree(c, res)


@pytest.mark.parametrize("n", [1, 2, 3])
class TestAllreduceParity:
    def test_results_agree(self, n, rng):
        dc = DualCube(n)
        vals = rng.integers(-50, 50, dc.num_nodes)
        tot_e, res = allreduce_engine(dc, [int(v) for v in vals], ADD)
        vec = allreduce_vec(dc, vals, ADD)
        assert tot_e == list(vec)
        assert res.comm_steps == 2 * n


class TestEndToEndPipelines:
    """Multi-algorithm pipelines exercising the public API together."""

    def test_sort_then_prefix(self, rng):
        # Sort keys, then prefix-sum the sorted sequence: the classic
        # cumulative-distribution pipeline.
        rdc = RecursiveDualCube(3)
        dc = DualCube(3)
        keys = rng.integers(0, 100, 32)
        s = dual_sort(rdc, keys)
        cdf = dual_prefix(dc, s, ADD)
        assert list(cdf) == list(np.cumsum(sorted(keys)))

    def test_prefix_of_broadcast_constant(self, rng):
        from repro.routing import broadcast_engine

        dc = DualCube(2)
        got, _ = broadcast_engine(dc, 3, 7)
        pre = dual_prefix(dc, np.array(got), ADD)
        assert list(pre) == [7 * (k + 1) for k in range(8)]

    def test_counters_accumulate_across_calls(self, rng):
        dc = DualCube(2)
        c = CostCounters(8)
        dual_prefix(dc, rng.integers(0, 9, 8), ADD, counters=c)
        first = c.comm_steps
        dual_prefix(dc, rng.integers(0, 9, 8), ADD, counters=c)
        assert c.comm_steps == 2 * first
