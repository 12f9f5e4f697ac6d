"""Tests for the persistent perf harness (``repro bench``)."""

import copy
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.perf import (
    BenchRecord,
    compare_bench,
    load_bench,
    run_bench,
    write_bench,
)
from repro.perf.bench import SCHEMA_VERSION, _EXACT_FIELDS


@pytest.fixture(scope="module")
def smoke_payload():
    """One smoke run shared by the whole module (it runs real algorithms)."""
    return run_bench(smoke=True, max_n=2)


@pytest.fixture(scope="module")
def columnar_n2_payload():
    """The full columnar suite capped at n=2: all four algorithm benches
    on the default backend."""
    from repro.perf import run_bench_columnar

    return run_bench_columnar(max_n=2)


class TestRunBench:
    def test_smoke_caps_sweep_and_repeats(self, smoke_payload):
        assert smoke_payload["smoke"] is True
        assert smoke_payload["repeats"] == 1
        assert {r["n"] for r in smoke_payload["records"]} == {2}

    def test_schema_and_metadata(self, smoke_payload):
        assert smoke_payload["schema"] == SCHEMA_VERSION
        assert smoke_payload["suite"] == "core"
        assert smoke_payload["seed"] == 0

    def test_covers_every_suite_member(self, smoke_payload):
        benches = {(r["bench"], r["backend"]) for r in smoke_payload["records"]}
        assert benches == {
            ("dual_prefix", "engine"),
            ("dual_sort", "engine"),
            ("run_traffic", "router"),
            ("fault_prefix", "degraded-node"),
            ("fault_prefix", "degraded-link"),
            ("fault_prefix", "retry-drop"),
            ("fault_sort", "degraded-node"),
            ("fault_sort", "degraded-link"),
            ("fault_sort", "retry-drop"),
            ("fault_traffic", "router"),
        }

    def test_faults_only_runs_just_the_fault_family(self):
        payload = run_bench(smoke=True, max_n=2, faults_only=True)
        assert payload["suite"] == "faults"
        benches = {r["bench"] for r in payload["records"]}
        assert benches == {"fault_prefix", "fault_sort", "fault_traffic"}
        drops = {r["backend"]: r["messages_dropped"] for r in payload["records"]}
        assert drops["retry-drop"] > 0 or any(
            r["messages_dropped"] > 0 for r in payload["records"]
        )

    def test_records_have_sane_costs(self, smoke_payload):
        for r in smoke_payload["records"]:
            assert r["wall_s"] > 0
            assert r["num_nodes"] == 2 ** (2 * r["n"] - 1)
            assert r["messages"] > 0
            assert r["comm_steps"] >= 0
            assert r["messages_dropped"] >= 0
            assert r["retries"] >= 0
            assert r["timeouts"] == 0

    def test_engine_and_vectorized_agree_on_comm_steps(
        self, smoke_payload, columnar_n2_payload
    ):
        by_key = {
            (r["bench"], r["backend"]): r
            for r in smoke_payload["records"] + columnar_n2_payload["records"]
        }
        for bench in ("dual_prefix", "dual_sort"):
            eng = by_key[(bench, "engine")]
            vec = by_key[(bench, "columnar")]
            assert eng["comm_steps"] == vec["comm_steps"]

    def test_fault_traffic_hop_ledgers_reconcile(self, smoke_payload):
        by_key = {(r["bench"], r["backend"]): r for r in smoke_payload["records"]}
        r = by_key[("fault_traffic", "router")]
        # messages = physical crossings, payload_items = logical hops.
        assert r["retries"] > 0
        assert r["messages"] == r["payload_items"] + r["retries"]

    def test_vectorized_records_carry_phase_timings(
        self, smoke_payload, columnar_n2_payload
    ):
        by_key = {
            (r["bench"], r["backend"]): r
            for r in smoke_payload["records"] + columnar_n2_payload["records"]
        }
        phases = by_key[("large_prefix_b8", "columnar")]["phases"]
        assert set(phases) == {"local-prefix", "network", "fold"}
        assert all(v >= 0 for v in phases.values())
        assert by_key[("large_sort_b8", "columnar")]["phases"]
        assert by_key[("dual_sort", "columnar")]["phases"]
        # Engine benchmarks have no profiler hook; their dict stays empty.
        assert by_key[("dual_sort", "engine")]["phases"] == {}

    def test_max_n_validated(self):
        with pytest.raises(ValueError, match="max_n"):
            run_bench(max_n=1)

    def test_record_key(self):
        r = BenchRecord(
            bench="b", backend="x", n=2, num_nodes=16, wall_s=0.1,
            comm_steps=1, comp_steps=1, messages=1, payload_items=1,
            max_message_payload=1,
        )
        assert r.key == ("b", "x", 2)


class TestWriteLoad:
    def test_roundtrip(self, smoke_payload, tmp_path):
        path = write_bench(smoke_payload, tmp_path / "b.json")
        assert load_bench(path) == smoke_payload

    def test_output_is_stable_pretty_json(self, smoke_payload, tmp_path):
        path = write_bench(smoke_payload, tmp_path / "b.json")
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text) == smoke_payload

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 999, "records": []}))
        with pytest.raises(ValueError, match="schema"):
            load_bench(path)

    def test_schema_v1_baselines_still_load_and_compare(
        self, smoke_payload, tmp_path
    ):
        """Files written before the ``phases`` field (schema 1) stay usable
        as ``--compare`` baselines; added keys are ignored."""
        old = copy.deepcopy(smoke_payload)
        old["schema"] = 1
        for r in old["records"]:
            del r["phases"]
        path = write_bench(old, tmp_path / "v1.json")
        loaded = load_bench(path)
        assert loaded["schema"] == 1
        assert compare_bench(smoke_payload, loaded) == []


class TestCompareBench:
    def test_identical_payloads_are_clean(self, smoke_payload):
        assert compare_bench(smoke_payload, smoke_payload) == []

    @pytest.mark.parametrize("field", _EXACT_FIELDS)
    def test_cost_field_drift_is_flagged(self, smoke_payload, field):
        current = copy.deepcopy(smoke_payload)
        current["records"][0][field] += 1
        problems = compare_bench(current, smoke_payload)
        assert len(problems) == 1
        assert field in problems[0]

    def test_wallclock_regression_flagged(self, smoke_payload):
        current = copy.deepcopy(smoke_payload)
        current["records"][0]["wall_s"] = smoke_payload["records"][0]["wall_s"] * 10
        problems = compare_bench(current, smoke_payload)
        assert len(problems) == 1
        assert "wallclock" in problems[0]

    def test_wallclock_within_factor_ok(self, smoke_payload):
        current = copy.deepcopy(smoke_payload)
        current["records"][0]["wall_s"] = smoke_payload["records"][0]["wall_s"] * 1.4
        assert compare_bench(current, smoke_payload) == []

    def test_disappeared_record_flagged(self, smoke_payload):
        current = copy.deepcopy(smoke_payload)
        dropped = current["records"].pop()
        problems = compare_bench(current, smoke_payload)
        assert len(problems) == 1
        assert dropped["bench"] in problems[0]
        assert "disappeared" in problems[0]

    def test_new_record_is_fine(self, smoke_payload):
        previous = copy.deepcopy(smoke_payload)
        previous["records"].pop()
        assert compare_bench(smoke_payload, previous) == []

    def test_bad_wall_factor_rejected(self, smoke_payload):
        with pytest.raises(ValueError, match="wall_factor"):
            compare_bench(smoke_payload, smoke_payload, wall_factor=0)


class TestCli:
    def test_bench_smoke_writes_file(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        rc = main(["bench", "--smoke", "--max-n", "2", "--out", str(out)])
        assert rc == 0
        assert load_bench(out)["smoke"] is True
        stdout = capsys.readouterr().out
        assert "repro bench (smoke)" in stdout
        assert "dual_sort" in stdout

    def test_bench_compare_clean_exit_zero(self, tmp_path, capsys):
        prev = tmp_path / "prev.json"
        main(["bench", "--smoke", "--max-n", "2", "--out", str(prev)])
        rc = main(
            [
                "bench", "--smoke", "--max-n", "2",
                "--out", str(tmp_path / "cur.json"),
                "--compare", str(prev),
                "--wall-factor", "1000",
            ]
        )
        assert rc == 0
        assert "no regressions" in capsys.readouterr().out

    def test_bench_compare_regression_exit_one(self, tmp_path, capsys):
        prev_path = tmp_path / "prev.json"
        main(["bench", "--smoke", "--max-n", "2", "--out", str(prev_path)])
        doctored = load_bench(prev_path)
        doctored["records"][0]["messages"] += 7
        write_bench(doctored, prev_path)
        rc = main(
            [
                "bench", "--smoke", "--max-n", "2",
                "--out", str(tmp_path / "cur.json"),
                "--compare", str(prev_path),
                "--wall-factor", "1000",
            ]
        )
        assert rc == 1
        assert "REGRESSIONS" in capsys.readouterr().out


class TestCampaignCli:
    def test_passing_gate_leaves_the_baseline_byte_identical(
        self, tmp_path, capsys
    ):
        # --compare X --out X (the make bench-campaign-smoke idiom): a run
        # that passes must not rewrite X with fresh wall times, so
        # `make check` leaves the committed baselines untouched.
        root = Path(__file__).resolve().parents[2]
        baseline = tmp_path / "BENCH_campaign_smoke.json"
        before = (root / "BENCH_campaign_smoke.json").read_bytes()
        baseline.write_bytes(before)
        argv = ["bench", "--backend", "campaign", "--smoke",
                "--out", str(baseline), "--compare", str(baseline),
                "--wall-factor", "1000"]
        assert main(argv) == 0
        assert baseline.read_bytes() == before
        assert "baseline unchanged" in capsys.readouterr().out
        # A different --out still gets the fresh run written.
        other = tmp_path / "cur.json"
        argv[argv.index("--out") + 1] = str(other)
        assert main(argv) == 0
        assert load_bench(other)["suite"] == "campaign"


class TestColumnarBench:
    @pytest.fixture(scope="class")
    def columnar_payload(self):
        from repro.perf import run_bench_columnar

        return run_bench_columnar(smoke=True, max_n=2)

    def test_smoke_runs_single_size(self, columnar_payload):
        assert columnar_payload["suite"] == "columnar"
        assert columnar_payload["schema"] == SCHEMA_VERSION
        assert {r["n"] for r in columnar_payload["records"]} == {2}
        assert {r["backend"] for r in columnar_payload["records"]} == {"columnar"}
        assert {r["bench"] for r in columnar_payload["records"]} == {
            "dual_prefix",
            "dual_sort",
        }

    def test_records_carry_peak_memory(self, columnar_payload):
        for r in columnar_payload["records"]:
            assert r["peak_mem_mb"] > 0

    def test_counters_match_core_suite(self, columnar_payload, smoke_payload):
        # The columnar records must be cost-identical to the engine rows
        # of the core suite at the same (bench, n).
        core = {
            (r["bench"], r["n"]): r
            for r in smoke_payload["records"]
            if r["backend"] == "engine"
        }
        for r in columnar_payload["records"]:
            base = core[(r["bench"], r["n"])]
            for f in _EXACT_FIELDS:
                assert r[f] == base[f], (r["bench"], f)

    def test_max_n_validated(self):
        from repro.perf import run_bench_columnar

        with pytest.raises(ValueError, match="max_n"):
            run_bench_columnar(max_n=1)


class TestCompareBenchDetailed:
    def test_counter_regression_names_field_and_values(self, smoke_payload):
        from repro.perf import compare_bench_detailed

        current = copy.deepcopy(smoke_payload)
        current["records"][0]["messages"] += 7
        (reg,) = compare_bench_detailed(current, smoke_payload)
        base = smoke_payload["records"][0]
        assert reg.field == "messages"
        assert reg.baseline == base["messages"]
        assert reg.current == base["messages"] + 7
        assert (reg.bench, reg.backend, reg.n) == (
            base["bench"], base["backend"], base["n"],
        )
        assert str(reg) in compare_bench(current, smoke_payload)

    def test_wallclock_regression_field(self, smoke_payload):
        from repro.perf import compare_bench_detailed

        current = copy.deepcopy(smoke_payload)
        current["records"][0]["wall_s"] = smoke_payload["records"][0]["wall_s"] * 10
        (reg,) = compare_bench_detailed(current, smoke_payload)
        assert reg.field == "wall_s"
        assert reg.current == pytest.approx(reg.baseline * 10)

    def test_disappeared_record_field(self, smoke_payload):
        from repro.perf import compare_bench_detailed

        current = copy.deepcopy(smoke_payload)
        current["records"].pop()
        (reg,) = compare_bench_detailed(current, smoke_payload)
        assert reg.field == "record"
        assert reg.current is None

    def test_string_view_delegates(self, smoke_payload):
        from repro.perf import compare_bench_detailed

        current = copy.deepcopy(smoke_payload)
        current["records"][0]["comm_steps"] += 1
        current["records"][1]["wall_s"] *= 100
        assert compare_bench(current, smoke_payload) == [
            str(r) for r in compare_bench_detailed(current, smoke_payload)
        ]


class TestReplayBench:
    @pytest.fixture(scope="class")
    def replay_payload(self):
        from repro.perf import run_bench_replay

        return run_bench_replay(smoke=True, max_n=2, shards=2)

    def test_smoke_suite_shape(self, replay_payload):
        assert replay_payload["suite"] == "replay"
        assert replay_payload["schema"] == SCHEMA_VERSION
        assert {r["n"] for r in replay_payload["records"]} == {2}
        benches = {(r["bench"], r["backend"]) for r in replay_payload["records"]}
        assert benches == {
            ("dual_prefix", "replay"),
            ("dual_sort", "replay"),
            ("large_prefix_b8", "replay"),
            ("large_sort_b8", "replay"),
            ("dual_prefix", "replay-sharded"),
        }

    def test_counters_match_core_suite(
        self, replay_payload, columnar_n2_payload
    ):
        # Replay rows (sharded included) must be cost-identical to the
        # default (columnar) rows at the same (bench, n).
        core = {
            (r["bench"], r["n"]): r
            for r in columnar_n2_payload["records"]
        }
        for r in replay_payload["records"]:
            base = core[(r["bench"], r["n"])]
            for f in _EXACT_FIELDS:
                assert r[f] == base[f], (r["bench"], r["backend"], f)

    def test_records_carry_peak_memory(self, replay_payload):
        for r in replay_payload["records"]:
            assert r["peak_mem_mb"] > 0

    def test_max_n_validated(self):
        from repro.perf import run_bench_replay

        with pytest.raises(ValueError, match="max_n"):
            run_bench_replay(max_n=1)


class TestReplayCli:
    def test_bench_backend_replay_smoke_gates_against_itself(self, tmp_path):
        out = tmp_path / "br.json"
        assert main(
            ["bench", "--backend", "replay", "--smoke", "--max-n", "2",
             "--out", str(out)]
        ) == 0
        assert load_bench(out)["suite"] == "replay"
        # Second run compares against the file it is about to overwrite;
        # counters are deterministic, so this must gate clean (the
        # make bench-replay-smoke idiom).
        assert main(
            ["bench", "--backend", "replay", "--smoke", "--max-n", "2",
             "--out", str(out), "--compare", str(out), "--wall-factor", "50"]
        ) == 0

    def test_faults_flag_rejected_for_replay(self):
        assert main(["bench", "--backend", "replay", "--faults"]) == 2


class TestMergeBench:
    def test_merge_keeps_disjoint_and_overwrites_collisions(self):
        from repro.perf import merge_bench

        rec = dict(bench="dual_prefix", backend="columnar", n=2, wall_s=1.0)
        old = dict(bench="dual_prefix", backend="engine", n=2, wall_s=9.0)
        collide_old = dict(rec, wall_s=5.0)
        base = {"schema": 2, "suite": "core", "records": [old, collide_old]}
        new = {"schema": SCHEMA_VERSION, "suite": "columnar", "records": [rec]}
        merged = merge_bench(base, new)
        assert merged["schema"] == SCHEMA_VERSION
        assert merged["suite"] == "columnar"
        keys = [(r["bench"], r["backend"], r["n"]) for r in merged["records"]]
        assert keys == sorted(keys) and len(keys) == 2
        by_key = {(r["bench"], r["backend"], r["n"]): r for r in merged["records"]}
        assert by_key[("dual_prefix", "columnar", 2)]["wall_s"] == 1.0
        assert by_key[("dual_prefix", "engine", 2)]["wall_s"] == 9.0

    def test_older_schemas_still_load(self, tmp_path):
        for schema in (1, 2):
            p = tmp_path / f"v{schema}.json"
            p.write_text(json.dumps({"schema": schema, "records": []}))
            assert load_bench(p)["schema"] == schema


class TestColumnarCli:
    def test_bench_backend_columnar_smoke(self, tmp_path, capsys):
        out = tmp_path / "bc.json"
        rc = main(
            ["bench", "--backend", "columnar", "--smoke", "--max-n", "2",
             "--out", str(out), "--compare", str(out)]
        )
        # --compare pointing at a not-yet-existing baseline is a first
        # run: record it and exit clean rather than crash.
        assert rc == 0
        assert out.exists()
        assert "no baseline" in capsys.readouterr().out

    def test_compare_loads_baseline_before_overwriting(self, tmp_path):
        out = tmp_path / "bc.json"
        assert main(
            ["bench", "--backend", "columnar", "--smoke", "--max-n", "2",
             "--out", str(out)]
        ) == 0
        # Second run compares against the file it is about to overwrite;
        # counters are deterministic, so this must gate clean.
        assert main(
            ["bench", "--backend", "columnar", "--smoke", "--max-n", "2",
             "--out", str(out), "--compare", str(out), "--wall-factor", "50"]
        ) == 0

    def test_faults_flag_rejected_for_columnar(self):
        assert main(["bench", "--backend", "columnar", "--faults"]) == 2

    def test_regressing_run_leaves_the_baseline_untouched(self, tmp_path):
        # --compare X --out X (the make bench-columnar-smoke idiom): a run
        # that regresses must not overwrite X, or the rerun would gate
        # clean against the regressed numbers.
        root = Path(__file__).resolve().parents[2]
        doctored = load_bench(root / "BENCH_columnar_smoke.json")
        doctored["records"][0]["comm_steps"] -= 1
        baseline = write_bench(doctored, tmp_path / "BENCH_columnar_smoke.json")
        before = baseline.read_bytes()
        argv = ["bench", "--backend", "columnar", "--smoke",
                "--out", str(baseline), "--compare", str(baseline),
                "--wall-factor", "20"]
        assert main(argv) == 1
        assert main(argv) == 1
        assert baseline.read_bytes() == before
