"""Self-test of the benchmark.

Run from the repository root: ``python3 perfbench/selftest.py``.  It
checks that

* ``BENCHMARK.json`` lists exactly the workloads and metrics the code
  emits;
* an untraced run of every workload emits every gated metric with its
  unit, and the workload's own named metrics in its printed lines, with
  at least ten calls beyond ``small_call_p99_us``;
* a traced run of every workload emits every per-layer metric with its
  unit and passes the layer-coverage check, ``core.*`` books only
  default-backend calls, and the model counts repeat exactly on a second
  traced run;
* a corrupted output (two swapped elements, a wrong count) and an
  exception are counted as failed ops, so the checks can fail;
* without the library's sources next to it the benchmark exits non-zero
  and prints no result.

Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# The named metrics each workload prints besides the gated ones.
NAMED = {
    "bulk-d10": ("prefix_melem_per_s", "sort_melem_per_s",
                 "large_prefix_melem_per_s", "large_sort_melem_per_s"),
    "paper-small": ("small_call_p50_us", "small_call_p99_us",
                    "engine_runs_per_s"),
    "serve-d6": ("serve_kreq_per_s",),
    "campaign-d3": ("campaign_s",),
}
COMMON = ("calibration_ms", "error_rate")
MODEL_COUNTS = ("core.comm_rounds", "core.payload_items", "engine.cycles")

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def bench(workload: str, trace: int, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def printed_units(stdout: str) -> dict:
    """``{name: unit}`` of the ``# name = value unit (...)`` lines."""
    units = {}
    for line in stdout.splitlines():
        if line.startswith("# ") and " = " in line:
            name, rest = line[2:].split(" = ", 1)
            units[name] = rest.split()[1]
    return units


def check_manifest() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
           == list(WORKLOADS), "BENCHMARK.json workloads match the code")
    expect([(m["name"], m["unit"]) for m in spec["end_to_end"]]
           == list(run.END_TO_END), "BENCHMARK.json end_to_end matches the code")
    expect([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
           == list(PER_LAYER), "BENCHMARK.json per_layer matches the code")


def check_untraced(workload: str) -> None:
    proc = bench(workload, 0)
    if proc.returncode:
        expect(False, f"{workload} untraced run exits 0:\n{proc.stderr}")
        return
    result = json.loads(proc.stdout.splitlines()[-1])
    expect(result["correct"] and result["failed"] == 0
           and result["attempted"] >= 1, f"{workload} untraced run is correct")
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    expect(emitted == dict(run.END_TO_END),
           f"{workload} emits every end-to-end metric with its unit")
    printed = printed_units(proc.stdout)
    missing = [m for m in NAMED[workload] + COMMON if m not in printed]
    expect(not missing, f"{workload} prints its named metrics"
           + (f", missing {missing}" if missing else ""))
    if workload == "paper-small":
        out = ROOT / "perfbench" / "out" / f"{workload}-seed7-trace0.json"
        n = json.loads(out.read_text())["metrics"]["small_call_p99_us"]["samples"]
        expect(n - math.ceil(0.99 * n) >= 10,
               f"small_call_p99_us leaves at least ten of {n} calls beyond it")


def check_traced(workload: str) -> dict | None:
    proc = bench(workload, 1)
    if proc.returncode:
        expect(False, f"{workload} traced run exits 0:\n{proc.stderr}")
        return None
    result = json.loads(proc.stdout.splitlines()[-1])
    expect(result["correct"] and result["failed"] == 0,
           f"{workload} traced run is correct and covers its layers")
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    expect(emitted == {n: u for n, u, _ in PER_LAYER},
           f"{workload} emits every per-layer metric with its unit")
    if workload == "paper-small":
        # Three default-backend calls of each entry point per 13-op cycle;
        # the engine-backend calls are not booked under core.*.
        wl = WORKLOADS[workload]
        default_calls = 3 * wl.trace_ops // 13
        expect(all(result["metrics"][f"core.{e}.calls"]["value"] == default_calls
                   for e in ("dual_prefix", "dual_sort", "large_prefix", "large_sort")),
               f"core.* counts only the {default_calls} default-backend calls "
               f"of each entry point")
    return {k: result["metrics"][k]["value"] for k in MODEL_COUNTS}


def check_corruption() -> None:
    """The checks catch a wrong output and an exception."""
    wl = WORKLOADS["paper-small"](3)
    wl.build()
    real_op = wl.op

    def corrupted(i):
        kind, call, check = real_op(i)

        def swapped():
            out = call().copy()
            out[[0, -1]] = out[[-1, 0]]
            return out

        return kind, swapped, check

    wl.op = corrupted
    for i in (0, 1):  # dual_prefix and dual_sort on D_3
        wl.run_op(i)
    expect(wl.failed == 2 and wl.attempted == 2,
           "two swapped elements count as failed ops")

    wl.op = lambda i: ("boom", lambda: 1 // 0, lambda out: True)
    wl.run_op(0)
    expect(wl.failed == 3 and wl.attempted == 3, "an exception counts as a failed op")

    serve = WORKLOADS["serve-d6"](3)
    serve.REQUESTS = 200
    serve.build()
    kind, call, check = serve.op(0)
    stats = call()
    expect(check(stats), "a correct ServingStats passes")
    expect(not check(replace(stats, drops=stats.drops + 1)),
           "a ServingStats breaking conservation fails")


def check_bare_directory() -> None:
    """Only BENCHMARK.json and perfbench/: exit non-zero, print no result."""
    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    try:
        proc = bench("paper-small", 0, cwd=bare, script=bare / "perfbench" / "run.py")
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "without src/ the benchmark exits non-zero and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_manifest()
    check_corruption()
    check_bare_directory()
    for workload in WORKLOADS:
        check_untraced(workload)
        counts = check_traced(workload)
        if workload != "serve-d6" and counts is not None:
            again = check_traced(workload)
            expect(again == counts,
                   f"{workload} model counts repeat exactly: {counts}")
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
