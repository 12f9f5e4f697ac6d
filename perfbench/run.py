"""Benchmark of the repro library: one workload per run.

Run from the root of the repository::

    python3 perfbench/run.py --workload bulk-d10 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload campaign-d3 --seed 1 --trace 1

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
runs the workload's fixed traced op list and reports the per-layer
metrics.  Human-readable lines (provenance, every metric with its unit,
sample count and statistic) come first; the last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
The full result, with the spans of a traced run, is also written to
``perfbench/out/``.  See ``perfbench/README.md``.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here, before any import

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("bulk-d10", "paper-small", "serve-d6", "campaign-d3")
# Cold set-ups per untraced run, this process's included: at least 3,
# more while they take under 6 s in all, at most 7.
SETUP_MIN, SETUP_BUDGET_S, SETUP_MAX = 3, 6.0, 7

# The end-to-end metrics every workload reports, as listed in BENCHMARK.json.
END_TO_END = (("setup_s", "s"), ("op_cost", "cal"), ("peak_rss_mb", "MiB"))


def git_rev() -> str:
    """The commit checked out at ROOT, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """sha256 over the library's source files: identifies the code also
    where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(args) -> dict:
    import numpy

    u = os.uname()
    return {
        "git_rev": git_rev(),
        "src_sha256": source_digest(),
        "machine": f"{u.sysname} {u.release} {u.machine}",
        "host": u.nodename,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_in_subprocess(workload: str, seed: int) -> float:
    """One cold set-up (import, build, warm-up) in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def measure(wl, args, setup_s: float) -> tuple[dict, dict]:
    """The untraced run: end-to-end metrics."""
    wl.run(args.seconds)
    metrics = wl.end_to_end()
    setups = [setup_s]
    while len(setups) < SETUP_MIN or (
            sum(setups) < SETUP_BUDGET_S and len(setups) < SETUP_MAX):
        setups.append(setup_in_subprocess(args.workload, args.seed))
    metrics["setup_s"] = {
        "value": statistics.median(setups), "unit": "s",
        "samples": len(setups), "values": setups,
        "statistic": "median of cold set-ups (import, build, warm-up), "
                     "all but the first in a fresh interpreter"}
    metrics["peak_rss_mb"] = {
        "value": peak_rss_mb(), "unit": "MiB", "samples": 1,
        "statistic": "peak resident set of the measuring process"}
    metrics["error_rate"] = {
        "value": wl.failed / wl.attempted, "unit": "fraction",
        "samples": wl.attempted, "statistic": "failed ops / attempted ops"}
    reported = {name: {"value": metrics[name]["value"], "unit": unit}
                for name, unit in END_TO_END}
    return metrics, reported


def traced(wl) -> tuple[dict, dict, list]:
    """The traced run: the workload's fixed op list untraced, then traced."""
    from tracing import PER_LAYER, Tracer

    ops = range(wl.trace_ops)
    t0 = time.perf_counter()
    wl.build()
    untraced = time.perf_counter() - t0 + sum(wl.run_op(i) for i in ops)
    with Tracer() as tracer:
        with tracer.recording("build"):
            wl.build()
        for i in ops:
            wl.run_op(i, tracer)
    values = tracer.metrics(untraced_wall_s=untraced)
    missing = tracer.missing(wl.name)
    wl.attempted += 1  # the layer-coverage check
    if missing:
        wl.failed += 1
        print(f"layer coverage: no call reached {', '.join(missing)} "
              f"on {wl.name}", file=sys.stderr)
    metrics = {name: {"value": values[name], "unit": unit,
                      "samples": len(ops), "statistic": "sum over the traced ops"}
               for name, unit, _ in PER_LAYER}
    reported = {name: {"value": values[name], "unit": unit}
                for name, unit, _ in PER_LAYER}
    return metrics, reported, tracer.spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no library source at {SRC}; run from a checkout of "
              f"the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    wl.setup()
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    spans = None
    if args.trace:
        metrics, reported, spans = traced(wl)
    else:
        metrics, reported = measure(wl, args, setup_s)

    prov = provenance(args)
    result = {"workload": wl.name, "why": wl.why, "provenance": prov,
              "attempted": wl.attempted, "failed": wl.failed,
              "metrics": metrics, "records": wl.records,
              "calibrations": wl.calibrations}
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(dict(result, spans=spans), indent=1) + "\n")

    print(f"# {wl.name}: {wl.why}")
    print("# provenance " + json.dumps(prov, sort_keys=True))
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}  "
              f"({m['statistic']}; n={m['samples']})")
    print(f"# ops attempted {wl.attempted}, failed {wl.failed}; "
          f"full result in {out_file.relative_to(ROOT)}")
    print(json.dumps({"correct": wl.failed == 0, "attempted": wl.attempted,
                      "failed": wl.failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
