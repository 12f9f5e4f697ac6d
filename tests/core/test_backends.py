"""The backend registry: introspection, the cross-backend result/counter
matrix for every entry point, and the uniformly-worded dispatch errors
(unknown backend + capability guards) the registry pins."""

import numpy as np
import pytest

from repro.core import (
    ADD,
    BackendSpec,
    arranged_index_v,
    backend_names,
    backend_spec,
    dual_prefix,
    dual_sort,
    entry_points,
    hypercube_bitonic_sort,
    large_prefix,
    large_sort,
    resolve_backend,
    sequential_prefix,
)
from repro.obs.profile import PhaseProfiler
from repro.obs.timeline import TimelineRecorder
from repro.simulator import CostCounters, TraceRecorder
from repro.topology import DualCube, RecursiveDualCube

ARRAY_BACKENDS = ("columnar", "replay")


class TestRegistryIntrospection:
    def test_entry_points(self):
        assert entry_points() == (
            "bitonic",
            "dual_prefix",
            "dual_sort",
            "large_prefix",
            "large_sort",
        )

    def test_backend_names(self):
        assert backend_names("dual_prefix") == ("columnar", "engine", "replay")
        assert backend_names("dual_sort") == ("columnar", "engine", "replay")
        assert backend_names("bitonic") == ("columnar", "engine", "replay")
        # The large-input entry points have no backend="engine": the
        # cycle-accurate variant is the separate large_prefix_engine.
        assert backend_names("large_prefix") == ("columnar", "replay")
        assert backend_names("large_sort") == ("columnar", "replay")

    def test_specs_declare_capabilities_once(self):
        spec = backend_spec("dual_prefix", "columnar")
        assert isinstance(spec, BackendSpec)
        assert spec.features == {"counters", "trace", "profiler"}
        assert spec.returns == "result array"
        assert backend_spec("dual_prefix", "engine").returns == (
            "(result array, EngineResult)"
        )
        assert backend_spec("dual_prefix", "replay").features == {
            "counters", "shards",
        }
        # Sharding exists only on the prefix family's replay backends.
        for ep in entry_points():
            for name in backend_names(ep):
                shards_ok = "shards" in backend_spec(ep, name).features
                assert shards_ok == (
                    name == "replay" and ep in ("dual_prefix", "large_prefix")
                ), (ep, name)

    def test_unknown_entry_point(self):
        with pytest.raises(ValueError, match="unknown entry point 'nope'"):
            backend_names("nope")
        with pytest.raises(ValueError, match="unknown entry point"):
            resolve_backend("nope", "columnar")

    def test_unknown_feature_rejected(self):
        with pytest.raises(ValueError, match="unknown backend feature"):
            resolve_backend("dual_prefix", "columnar", warp=True)

    def test_spec_rejects_undeclared_features(self):
        with pytest.raises(ValueError, match="unknown features"):
            BackendSpec(
                entry_point="x", name="y", features=frozenset({"magic"}),
                returns="r", description="d", loader=lambda: None,
            )


class TestUnknownBackendMessages:
    """Satellite fix: one shared message shape for every entry point."""

    def test_dual_prefix(self):
        dc = DualCube(2)
        with pytest.raises(
            ValueError,
            match=r"unknown backend 'nope' for dual_prefix; choose one of "
                  r"'columnar', 'engine', 'replay'$",
        ):
            dual_prefix(dc, np.arange(dc.num_nodes), ADD, backend="nope")

    def test_dual_sort(self):
        rdc = RecursiveDualCube(2)
        with pytest.raises(
            ValueError,
            match=r"unknown backend 'nope' for dual_sort; choose one of "
                  r"'columnar', 'engine', 'replay'$",
        ):
            dual_sort(rdc, np.arange(rdc.num_nodes), backend="nope")

    def test_bitonic(self):
        with pytest.raises(
            ValueError,
            match=r"unknown backend 'nope' for bitonic; choose one of "
                  r"'columnar', 'engine', 'replay'$",
        ):
            hypercube_bitonic_sort(np.arange(8), backend="nope")

    def test_large_prefix_names_the_engine_entry_point(self):
        dc = DualCube(2)
        with pytest.raises(
            ValueError,
            match=r"unknown backend 'engine' for large_prefix; choose one "
                  r"of 'columnar', 'replay' "
                  r"\(large_prefix_engine is the cycle-accurate entry "
                  r"point\)",
        ):
            large_prefix(dc, np.arange(dc.num_nodes), ADD, backend="engine")

    def test_large_sort(self):
        rdc = RecursiveDualCube(2)
        with pytest.raises(
            ValueError,
            match=r"unknown backend 'nope' for large_sort; choose one of "
                  r"'columnar', 'replay'$",
        ):
            large_sort(rdc, np.arange(rdc.num_nodes), backend="nope")


class TestCapabilityGuards:
    """Every (entry point, backend) rejects unsupported keywords with the
    registry's uniform wording — including combinations the old inline
    chains silently mishandled (dual_prefix profiler, bitonic columnar)."""

    def test_engine_rejects_external_counters(self):
        dc = DualCube(2)
        with pytest.raises(
            ValueError, match="takes no external counters"
        ):
            dual_prefix(
                dc, np.arange(dc.num_nodes), ADD, backend="engine",
                counters=CostCounters(dc.num_nodes),
            )

    def test_columnar_rejects_shards(self):
        dc = DualCube(2)
        with pytest.raises(
            ValueError,
            match=r"the 'columnar' backend of dual_prefix has no "
                  r"multiprocessing sharding; shards is supported by: "
                  r"'replay'",
        ):
            dual_prefix(dc, np.arange(dc.num_nodes), ADD, shards=2)

    def test_dual_prefix_replay_rejects_trace_and_profiler(self):
        dc = DualCube(2)
        vals = np.arange(dc.num_nodes)
        with pytest.raises(ValueError, match="no per-rank values to trace"):
            dual_prefix(dc, vals, ADD, backend="replay", trace=TraceRecorder())
        with pytest.raises(ValueError, match="profiling hooks"):
            dual_prefix(
                dc, vals, ADD, backend="replay", profiler=PhaseProfiler()
            )

    def test_dual_sort_guards(self):
        rdc = RecursiveDualCube(2)
        keys = np.arange(rdc.num_nodes)
        with pytest.raises(ValueError, match="takes no external counters"):
            dual_sort(
                rdc, keys, backend="engine",
                counters=CostCounters(rdc.num_nodes),
            )
        with pytest.raises(ValueError, match="no per-rank values to trace"):
            dual_sort(rdc, keys, backend="replay", trace=TraceRecorder())
        with pytest.raises(ValueError, match="profiling hooks"):
            dual_sort(rdc, keys, backend="replay", profiler=PhaseProfiler())

    def test_large_prefix_guards(self):
        dc = DualCube(2)
        vals = np.arange(dc.num_nodes * 4)
        with pytest.raises(
            ValueError,
            match=r"the 'columnar' backend of large_prefix has no "
                  r"multiprocessing sharding",
        ):
            large_prefix(dc, vals, ADD, backend="columnar", shards=2)

    def test_bitonic_guards(self):
        keys = np.arange(8)
        with pytest.raises(ValueError, match="takes no external counters"):
            hypercube_bitonic_sort(
                keys, backend="engine", counters=CostCounters(8)
            )
        with pytest.raises(ValueError, match="no per-rank values to trace"):
            hypercube_bitonic_sort(
                keys, backend="replay", trace=TraceRecorder()
            )

    def test_error_lists_supporting_backends(self):
        with pytest.raises(
            ValueError,
            match=r"trace is supported by: 'columnar', 'engine'",
        ):
            resolve_backend("dual_sort", "replay", trace=True)

    def test_false_requests_pass(self):
        # Passing feature=False (keyword left at None by the caller) never
        # trips the guard, whatever the backend.
        for ep in entry_points():
            for name in backend_names(ep):
                assert callable(
                    resolve_backend(
                        ep, name, counters=False, trace=False,
                        profiler=False, shards=False,
                    )
                )


class TestCrossBackendMatrix:
    """The acceptance matrix: every array backend of every entry point
    produces identical results AND identical counter ledgers on D_2..D_4."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_dual_prefix(self, n, rng):
        dc = DualCube(n)
        vals = rng.integers(0, 1000, dc.num_nodes)
        results, summaries = {}, {}
        for backend in ARRAY_BACKENDS:
            c = CostCounters(dc.num_nodes)
            results[backend] = dual_prefix(
                dc, vals, ADD, backend=backend, counters=c
            )
            summaries[backend] = c.summary()
        expected = sequential_prefix(vals.tolist(), ADD)
        for backend in ARRAY_BACKENDS:
            assert results[backend].tolist() == expected, backend
            assert summaries[backend] == summaries["columnar"], backend
        out, res = dual_prefix(dc, vals, ADD, backend="engine")
        assert list(out) == expected
        assert res.counters.summary() == summaries["columnar"]

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("policy", ["packed", "single"])
    def test_dual_sort(self, n, policy, rng):
        rdc = RecursiveDualCube(n)
        keys = rng.permutation(rdc.num_nodes)
        summaries = {}
        for backend in ARRAY_BACKENDS:
            c = CostCounters(rdc.num_nodes)
            out = dual_sort(
                rdc, keys, backend=backend, payload_policy=policy, counters=c
            )
            assert out.tolist() == sorted(keys.tolist()), backend
            summaries[backend] = c.summary()
        for backend in ARRAY_BACKENDS:
            assert summaries[backend] == summaries["columnar"], backend
        out, res = dual_sort(
            rdc, keys, backend="engine", payload_policy=policy
        )
        assert list(out) == sorted(keys.tolist())
        assert res.counters.summary() == summaries["columnar"]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_large_prefix(self, n, rng):
        dc = DualCube(n)
        vals = rng.integers(0, 1000, dc.num_nodes * 4)
        summaries = {}
        for backend in ARRAY_BACKENDS:
            c = CostCounters(dc.num_nodes)
            out = large_prefix(dc, vals, ADD, backend=backend, counters=c)
            assert out.tolist() == np.cumsum(vals).tolist(), backend
            summaries[backend] = c.summary()
        for backend in ARRAY_BACKENDS:
            assert summaries[backend] == summaries["columnar"], backend

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("policy", ["packed", "single"])
    def test_large_sort(self, n, policy, rng):
        rdc = RecursiveDualCube(n)
        keys = rng.permutation(rdc.num_nodes * 4)
        summaries = {}
        for backend in ARRAY_BACKENDS:
            c = CostCounters(rdc.num_nodes)
            out = large_sort(
                rdc, keys, backend=backend, payload_policy=policy, counters=c
            )
            assert out.tolist() == sorted(keys.tolist()), backend
            summaries[backend] = c.summary()
        for backend in ARRAY_BACKENDS:
            assert summaries[backend] == summaries["columnar"], backend

    @pytest.mark.parametrize("q", [1, 2, 3])
    @pytest.mark.parametrize("descending", [False, True])
    def test_bitonic(self, q, descending, rng):
        keys = rng.permutation(2**q)
        summaries = {}
        for backend in ARRAY_BACKENDS:
            c = CostCounters(len(keys))
            out = hypercube_bitonic_sort(
                keys, backend=backend, descending=descending, counters=c
            )
            expected = sorted(keys.tolist(), reverse=descending)
            assert out.tolist() == expected, backend
            summaries[backend] = c.summary()
        for backend in ARRAY_BACKENDS:
            assert summaries[backend] == summaries["columnar"], backend
        out, res = hypercube_bitonic_sort(
            keys, backend="engine", descending=descending
        )
        assert list(out) == sorted(keys.tolist(), reverse=descending)
        assert res.counters.summary() == summaries["columnar"]


class TestTimelineMirroring:
    def test_all_array_backends_emit_identical_step_records(self, rng):
        dc = DualCube(3)
        vals = rng.integers(0, 100, dc.num_nodes)
        recs = []
        for backend in ARRAY_BACKENDS:
            c = CostCounters(dc.num_nodes)
            tl = TimelineRecorder(num_nodes=dc.num_nodes)
            c.attach_timeline(tl)
            dual_prefix(dc, vals, ADD, backend=backend, counters=c)
            recs.append(tl.steps)
        assert recs[0] == recs[1]


class TestNarrowDtypes:
    """Every array backend promotes narrow prefix inputs the same way,
    to np.cumsum's values instead of wrapping in the input dtype."""

    @pytest.mark.parametrize("entry", ["dual_prefix", "large_prefix"])
    @pytest.mark.parametrize("dtype", [np.uint8, np.bool_])
    def test_add_promotes_like_cumsum(self, entry, dtype):
        dc = DualCube(3)
        size = dc.num_nodes * (4 if entry == "large_prefix" else 1)
        vals = np.full(size, 200 if dtype is np.uint8 else True, dtype=dtype)
        fn = {"dual_prefix": dual_prefix, "large_prefix": large_prefix}[entry]
        outs = {
            name: fn(dc, vals, ADD, backend=name)
            for name in backend_names(entry)
            if name != "engine"
        }
        want = np.cumsum(vals)
        for name, out in outs.items():
            assert out.tolist() == want.tolist(), name
            assert out.dtype == outs["columnar"].dtype, name


class TestTracedDefault:
    """trace= and profiler= on the default backend observe and change
    nothing: same bytes, same counter ledger as an unobserved call."""

    def test_dual_prefix(self, rng):
        dc = DualCube(3)
        vals = rng.integers(0, 1000, dc.num_nodes)
        plain_c, seen_c = CostCounters(dc.num_nodes), CostCounters(dc.num_nodes)
        trace, prof = TraceRecorder(num_nodes=dc.num_nodes), PhaseProfiler()
        plain = dual_prefix(dc, vals, ADD, counters=plain_c)
        seen = dual_prefix(
            dc, vals, ADD, counters=seen_c, trace=trace, profiler=prof
        )
        assert seen.tobytes() == plain.tobytes() and seen.dtype == plain.dtype
        assert seen_c.summary() == plain_c.summary()
        assert trace.snapshot("(f) final prefix", dc.num_nodes) == plain[
            arranged_index_v(dc)
        ].tolist()
        assert list(prof.totals()) == [
            "cluster-prefix", "cross", "block-prefix", "fold",
        ]

    def test_dual_sort(self, rng):
        rdc = RecursiveDualCube(3)
        keys = rng.permutation(rdc.num_nodes)
        plain_c, seen_c = CostCounters(rdc.num_nodes), CostCounters(rdc.num_nodes)
        trace, prof = TraceRecorder(num_nodes=rdc.num_nodes), PhaseProfiler()
        plain = dual_sort(rdc, keys, counters=plain_c)
        seen = dual_sort(
            rdc, keys, counters=seen_c, trace=trace, profiler=prof
        )
        assert seen.tobytes() == plain.tobytes() and seen.dtype == plain.dtype
        assert seen_c.summary() == plain_c.summary()
        assert trace.snapshot(trace.labels()[-1], rdc.num_nodes) == (
            plain.tolist()
        )
        assert len(prof.spans) == len(trace.labels()) - 1
