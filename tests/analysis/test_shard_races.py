"""Shard-disjointness race checker: span algebra, real plans, rejections.

The checker must accept every plan the sharded replay actually compiles
(they are exact disjoint covers of shared memory) and reject synthetic
racing or escaping plans *before* any worker forks.
"""

import numpy as np
import pytest

from repro.analysis.static.compile import (
    ShardRaceError,
    WriteSpan,
    check_columnar_round,
    check_shard_plan,
    columnar_round_spans,
    shard_task_spans,
    spans_overlap,
)
from repro.core.dual_prefix import dual_prefix
from repro.core.ops import ADD
from repro.core.replay import _cluster_blocks, dual_prefix_replay
from repro.topology import DualCube


def real_tasks(num_nodes, m, shards):
    """The (cls, start, stop) triples _dual_prefix_replay_sharded builds."""
    return [
        (cls, a, b)
        for cls in (0, 1)
        for a, b in _cluster_blocks(1 << m, shards)
    ]


class TestWriteSpan:
    def test_elements_and_stop(self):
        span = WriteSpan(buffer="t", base=2, stride=4, count=3, block=2)
        assert span.elements() == {2, 3, 6, 7, 10, 11}
        assert span.stop == 12

    def test_rejects_malformed(self):
        with pytest.raises(ValueError, match="malformed"):
            WriteSpan(buffer="t", base=-1, stride=1, count=1, block=1)
        with pytest.raises(ValueError, match="malformed"):
            WriteSpan(buffer="t", base=0, stride=1, count=0, block=1)

    def test_rejects_self_overlap(self):
        with pytest.raises(ValueError, match="overlaps itself"):
            WriteSpan(buffer="t", base=0, stride=1, count=2, block=2)


class TestSpansOverlap:
    def test_matches_brute_force(self):
        # Exhaustive small-parameter sweep against concrete element sets.
        rng = np.random.default_rng(7)
        spans = [
            WriteSpan(
                buffer="t",
                base=int(rng.integers(0, 6)),
                stride=int(stride),
                count=int(count),
                block=int(block),
            )
            for stride in (1, 2, 3, 5, 8)
            for count in (1, 2, 4)
            for block in (1, 2, 3)
            if count == 1 or stride >= block
        ]
        for a in spans:
            for b in spans:
                expected = bool(a.elements() & b.elements())
                assert spans_overlap(a, b) is expected, (a, b)

    def test_different_buffers_never_overlap(self):
        a = WriteSpan(buffer="t", base=0, stride=1, count=1, block=8)
        b = WriteSpan(buffer="s", base=0, stride=1, count=1, block=8)
        assert not spans_overlap(a, b)

    def test_interleaved_disjoint(self):
        lo = WriteSpan(buffer="t", base=0, stride=4, count=4, block=2)
        hi = WriteSpan(buffer="t", base=2, stride=4, count=4, block=2)
        assert not spans_overlap(lo, hi)
        shifted = WriteSpan(buffer="t", base=1, stride=4, count=4, block=2)
        assert spans_overlap(lo, shifted)
        assert spans_overlap(hi, shifted)


class TestRealPlansAccepted:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("shards", [1, 2, 3, 4, 8])
    def test_shard_plan_disjoint_exact_cover(self, n, shards):
        dc = DualCube(n)
        num, m = dc.num_nodes, dc.cluster_dim
        tasks = real_tasks(num, m, shards)
        spans = check_shard_plan(num, m, tasks)  # must not raise
        # The accepted plan is not merely race-free: per buffer it is an
        # exact partition of the full state vector.
        for buf in ("t", "s"):
            covered = frozenset().union(
                *(s.elements() for name, s in spans if s.buffer == buf)
            )
            assert covered == frozenset(range(num))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_columnar_rounds_disjoint_exact_partition(self, n):
        dc = DualCube(n)
        length = dc.num_nodes // 2
        for bit in range(dc.cluster_dim):
            spans = check_columnar_round(length, bit)
            t_cover = frozenset().union(
                *(s.elements() for name, s in spans if s.buffer == "t")
            )
            assert t_cover == frozenset(range(length))


class TestRejections:
    def test_overlapping_blocks_rejected(self):
        # DualCube(3): 32 nodes, 4 clusters per class half.
        with pytest.raises(ShardRaceError, match="overlap"):
            check_shard_plan(32, 2, [(0, 0, 3), (0, 2, 4)])

    def test_cross_class_never_overlaps(self):
        # Class halves are disjoint even with identical cluster blocks.
        check_shard_plan(32, 2, [(0, 0, 4), (1, 0, 4)])

    def test_block_escaping_cluster_range_rejected(self):
        with pytest.raises(ShardRaceError, match="escapes"):
            check_shard_plan(32, 2, [(0, 0, 5)])

    def test_bad_class_rejected(self):
        with pytest.raises(ShardRaceError, match="class"):
            check_shard_plan(32, 2, [(2, 0, 1)])

    def test_columnar_bit_out_of_range(self):
        with pytest.raises(ShardRaceError, match="out of range"):
            check_columnar_round(16, 4)
        with pytest.raises(ShardRaceError, match="out of range"):
            check_columnar_round(16, -1)

    def test_columnar_round_spans_shape(self):
        spans = dict(columnar_round_spans(16, 1))
        assert set(spans) == {"t_lo", "t_hi", "s_hi"}
        assert spans["t_lo"].base == 0
        assert spans["t_hi"].base == 2
        assert spans["s_hi"].buffer == "s"


class TestReplayGuard:
    """The live sharded replay runs the checker before forking."""

    def test_replay_still_matches_vectorized(self):
        dc = DualCube(3)
        rng = np.random.default_rng(11)
        vals = rng.integers(0, 100, dc.num_nodes).tolist()
        got = dual_prefix_replay(dc, vals, ADD, shards=2)
        want = dual_prefix(dc, vals, ADD)
        np.testing.assert_array_equal(got, want)

    def test_racing_block_plan_rejected_before_fork(self, monkeypatch):
        import repro.core.replay as replay

        # Rows [0, 3) and [2, 4) of each class half collide on row 2.
        monkeypatch.setattr(
            replay, "_cluster_blocks", lambda clusters, shards: [(0, 3), (2, 4)]
        )
        forked = []
        monkeypatch.setattr(
            replay, "_shard_worker",
            lambda task: forked.append(task),
        )
        dc = DualCube(3)
        vals = list(range(dc.num_nodes))
        with pytest.raises(ShardRaceError, match="overlap"):
            dual_prefix_replay(dc, vals, ADD, shards=2)
        assert forked == []  # the pool never ran a task
