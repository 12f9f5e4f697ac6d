"""Integration tests regenerating the paper's worked examples (Figs. 3-6)."""

import numpy as np

from repro import (
    ADD,
    DualCube,
    RecursiveDualCube,
    TraceRecorder,
    dual_sort_schedule,
)
from repro.core.dual_prefix import dual_prefix
from repro.core.dual_sort import dual_sort


class TestFigure3PrefixWalkthrough:
    """Prefix sum on D_3 with 32 values, panels (a)-(f)."""

    def setup_method(self):
        self.dc = DualCube(3)
        self.trace = TraceRecorder()
        self.values = np.arange(1, 33)
        self.result = dual_prefix(self.dc, self.values, ADD, trace=self.trace)

    def test_final_result_is_prefix_sums(self):
        assert list(self.result) == [k * (k + 1) // 2 for k in range(1, 33)]

    def test_panel_a_is_arranged_input(self):
        held = self.trace.snapshot("(a) input", 32)
        from repro.core.arrangement import arranged_index

        for u in self.dc.nodes():
            assert held[u] == self.values[arranged_index(self.dc, u)]

    def test_panel_b_cluster_prefixes(self):
        s = self.trace.snapshot("(b) cluster prefix s", 32)
        t = self.trace.snapshot("(b) cluster total t", 32)
        from repro.core.arrangement import arranged_index

        for cls in (0, 1):
            for k in range(4):
                members = self.dc.cluster_members(cls, k)
                block = [self.values[arranged_index(self.dc, u)] for u in members]
                assert [t[u] for u in members] == [sum(block)] * 4
                assert [s[u] for u in members] == list(np.cumsum(block))

    def test_panel_c_totals_crossed(self):
        t = self.trace.snapshot("(b) cluster total t", 32)
        temp = self.trace.snapshot("(c) cross total temp", 32)
        for u in self.dc.nodes():
            assert temp[u] == t[self.dc.cross_partner(u)]

    def test_panel_d_half_totals(self):
        t2 = self.trace.snapshot("(d) half total t'", 32)
        first_half = sum(range(1, 17))
        second_half = sum(range(17, 33))
        for u in self.dc.nodes():
            expected = first_half if self.dc.class_of(u) == 1 else second_half
            assert t2[u] == expected

    def test_panel_f_matches_final(self):
        final = self.trace.snapshot("(f) final prefix", 32)
        from repro.core.arrangement import arranged_index

        for u in self.dc.nodes():
            assert final[u] == self.result[arranged_index(self.dc, u)]

    def test_all_six_panels_present_in_order(self):
        tags = [lbl[:3] for lbl in self.trace.labels()]
        assert tags == ["(a)", "(b)", "(b)", "(c)", "(d)", "(d)", "(e)", "(f)"]


class TestFigures5And6SortWalkthrough:
    """Bitonic sort on D_3: generate bitonic sequence, then sort it."""

    def setup_method(self):
        self.rdc = RecursiveDualCube(3)
        rng = np.random.default_rng(2008)  # venue year as the fixed seed
        self.keys = rng.permutation(32)
        self.trace = TraceRecorder()
        self.sorted = dual_sort(self.rdc, self.keys, trace=self.trace)

    def _state_after(self, label_fragment: str, which: int = -1):
        labels = [l for l in self.trace.labels() if label_fragment in l]
        return np.array(self.trace.snapshot(labels[which], 32))

    def test_final_sorted(self):
        assert list(self.sorted) == list(range(32))

    def test_figure5_bitonic_sequence_before_final_merge(self):
        """After the half-merge of D_3 the whole sequence is bitonic, with
        the lower half ascending and the upper half descending."""
        from repro.core.bitonic import is_bitonic

        state = self._state_after("half-merge D_3")
        assert list(state[:16]) == sorted(state[:16])
        assert list(state[16:]) == sorted(state[16:], reverse=True)
        assert is_bitonic(list(state))

    def test_four_subcubes_sorted_alternately_after_recursion(self):
        """Figure 5's first stage: D^00 asc, D^01 desc, D^10 asc, D^11 desc."""
        # The recursive sorts end right before the first half-merge D_3 step.
        labels = list(self.trace.labels())
        first_hm3 = next(i for i, l in enumerate(labels) if "half-merge D_3" in l)
        state = np.array(self.trace.snapshot(labels[first_hm3 - 1], 32))
        for copy in range(4):
            block = list(state[copy * 8 : (copy + 1) * 8])
            if copy % 2 == 0:
                assert block == sorted(block), copy
            else:
                assert block == sorted(block, reverse=True), copy

    def test_figure6_final_merge_progresses_monotonically(self):
        """Each final-merge step reduces displacement until fully sorted."""
        labels = [l for l in self.trace.labels() if "full-merge D_3" in l]
        target = np.arange(32)
        disps = []
        for lbl in labels:
            state = np.array(self.trace.snapshot(lbl, 32))
            disps.append(int(np.abs(state - target).sum()))
        assert disps[-1] == 0
        assert all(a >= b for a, b in zip(disps, disps[1:]))

    def test_step_count_matches_schedule(self):
        assert len(self.trace.labels()) == 1 + len(dual_sort_schedule(3))

    def test_permutation_preserved_at_every_step(self):
        for lbl in self.trace.labels():
            state = self.trace.snapshot(lbl, 32)
            assert sorted(state) == list(range(32))


class TestFigure12Structure:
    """Figures 1-2: the D_2 and D_3 networks themselves."""

    def test_d2_shape(self):
        dc = DualCube(2)
        assert dc.num_nodes == 8
        assert len(list(dc.edges())) == 8
        assert all(dc.degree(u) == 2 for u in dc.nodes())

    def test_d3_shape(self):
        dc = DualCube(3)
        assert dc.num_nodes == 32
        assert len(list(dc.edges())) == 48
        assert dc.clusters_per_class == 4

    def test_d3_class_structure(self):
        dc = DualCube(3)
        class0 = [u for u in dc.nodes() if dc.class_of(u) == 0]
        class1 = [u for u in dc.nodes() if dc.class_of(u) == 1]
        assert len(class0) == len(class1) == 16


class TestFigure4RecursiveConstruction:
    """Figure 4: D_2 and D_3 built from four D_1 / D_2 plus joining links."""

    def test_d1_is_k2_base(self):
        r = RecursiveDualCube(1)
        assert r.num_nodes == 2 and r.has_edge(0, 1)

    def test_d2_from_four_d1(self):
        r = RecursiveDualCube(2)
        # 4 copies contribute 4 edges; joining links contribute the rest.
        joining = r.joining_edges()
        assert len(list(r.edges())) == 4 * 1 + len(joining)
        assert len(joining) == 4

    def test_d3_from_four_d2(self):
        r = RecursiveDualCube(3)
        joining = r.joining_edges()
        sub_edges = len(list(RecursiveDualCube(2).edges()))
        assert len(list(r.edges())) == 4 * sub_edges + len(joining)
        assert len(joining) == 16
