PYTHON ?= python
export PYTHONPATH := src

.PHONY: check test lint check-schedule check-faults-smoke timeline-smoke bench-smoke bench-faults-smoke bench-columnar-smoke bench-replay-smoke bench-serving-smoke bench-campaign-smoke campaign-smoke bench bench-columnar bench-replay bench-serving bench-campaign

## check: tier-1 tests + static analysis + timeline/bench smoke runs (what CI gates on)
check: test lint check-schedule check-faults-smoke timeline-smoke bench-smoke bench-faults-smoke bench-columnar-smoke bench-replay-smoke bench-serving-smoke bench-campaign-smoke campaign-smoke

test:
	$(PYTHON) -m pytest -x -q

## lint: repo-wide AST lint (REP001-REP007) over src/, tests/ and
## benchmarks/ — per-path rule profiles relax asserts in tests and
## prints in benchmarks (see repro.analysis.static.lint.RULE_PROFILES)
lint:
	$(PYTHON) -m repro lint src tests benchmarks

## check-schedule: static Theorem 1/2 schedule verification, D_2..D_5
check-schedule:
	$(PYTHON) -m repro check-schedule

## check-faults-smoke: shard/columnar race check of the compiled plans
check-faults-smoke:
	$(PYTHON) -m repro check-faults --plan

## timeline-smoke: record prefix+sort timelines, validate them against the
## static schedules, and exercise both metrics exporters (exit 1 on divergence)
timeline-smoke:
	$(PYTHON) -m repro timeline --smoke

## bench-smoke: core suite at small n, cost counters regression-gated
## against the committed baseline (wide wall factor — only the
## deterministic counters are meaningful gates on CI machines)
bench-smoke:
	$(PYTHON) -m repro bench --smoke \
		--out BENCH_smoke.json --compare BENCH_smoke.json \
		--wall-factor 20

## bench-faults-smoke: fault-injection suite at small n, cost counters
## regression-gated against the committed baseline (same wall factor)
bench-faults-smoke:
	$(PYTHON) -m repro bench --faults --smoke \
		--out BENCH_faults_smoke.json --compare BENCH_faults_smoke.json \
		--wall-factor 20

## bench-columnar-smoke: columnar backend at n=9 (131072 nodes), cost counters
## regression-gated against the committed baseline (wide wall factor — only
## the deterministic counters are meaningful gates on shared CI machines)
bench-columnar-smoke:
	$(PYTHON) -m repro bench --backend columnar --smoke \
		--out BENCH_columnar_smoke.json --compare BENCH_columnar_smoke.json \
		--wall-factor 20

## bench-replay-smoke: compiled-plan replay backend (n<=3 plus a sharded
## row), cost counters regression-gated against the committed baseline
## (wide wall factor — only the deterministic counters gate on CI machines)
bench-replay-smoke:
	$(PYTHON) -m repro bench --backend replay --smoke \
		--out BENCH_replay_smoke.json --compare BENCH_replay_smoke.json \
		--wall-factor 20

## bench-serving-smoke: open-loop queueing scenarios at n=2, deterministic
## serving counters regression-gated against the committed baseline (wide
## wall factor — only the counters are meaningful gates on CI machines)
bench-serving-smoke:
	$(PYTHON) -m repro bench --backend serving --smoke \
		--out BENCH_serving_smoke.json --compare BENCH_serving_smoke.json \
		--wall-factor 20

## bench-campaign-smoke: randomized SLO fault campaign at n=2, deterministic
## search fingerprint regression-gated against the committed baseline
bench-campaign-smoke:
	$(PYTHON) -m repro bench --backend campaign --smoke \
		--out BENCH_campaign_smoke.json --compare BENCH_campaign_smoke.json \
		--wall-factor 20

## campaign-smoke: run the D_2 campaign end to end and validate the report
## schema (exits nonzero on drift or a failed static cross-check)
campaign-smoke:
	$(PYTHON) -m repro campaign --smoke

## bench: full sweep, refreshes BENCH_core.json at the repo root
bench:
	$(PYTHON) -m repro bench

## bench-columnar: columnar sweep to D_11, merged into BENCH_core.json
bench-columnar:
	$(PYTHON) -m repro bench --backend columnar

## bench-replay: replay sweep (plus sharded D_9 row), merged into BENCH_core.json
bench-replay:
	$(PYTHON) -m repro bench --backend replay

## bench-serving: full serving scenario sweep, merged into BENCH_core.json
bench-serving:
	$(PYTHON) -m repro bench --backend serving

## bench-campaign: campaign sweep to D_3, merged into BENCH_core.json
bench-campaign:
	$(PYTHON) -m repro bench --backend campaign
