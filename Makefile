# Developer entry points.  Everything runs from the repo root with the
# in-tree sources (PYTHONPATH=src) so no install step is needed.

PYTHON ?= python
PYTHONPATH := src

.PHONY: test bench-quick bench perfbench-smoke lint lint-cache-parity scenarios-smoke dsl-smoke trace-smoke profile-smoke telemetry-smoke

## Tier-1: the full unit/integration/property suite.
test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q

## Perf baseline at quick scale: times every figure, verifies the
## optimized path is bit-identical to serial/uncached, writes
## BENCH_results.json.
bench-quick:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro bench

## The full pytest-benchmark evaluation (minutes; needs pytest-benchmark).
bench:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest benchmarks/ --benchmark-only

## Repository-benchmark correctness: every perfbench workload at seed 1
## with 1 s of rounds (about a minute on 2 vCPUs).  A point fails when
## its Report fingerprint differs from perfbench/expected_fingerprints.json
## or its work counters move between repeats.  run.py always exits 0, so
## the recipe fails unless there are result lines and every one reports
## "correct": true and "failed": 0.
perfbench-smoke:
	$(PYTHON) perfbench/run.py --workload all --seed 1 --seconds 1 --trace 0 \
		| $(PYTHON) -c "\
	import json, sys; \
	lines = sys.stdin.read().splitlines(); \
	print('\n'.join(lines)); \
	results = [json.loads(line) for line in lines if line.startswith('{')]; \
	bad = [r for r in results \
	       if r.get('correct') is not True or r.get('failed') != 0]; \
	ok = bool(results) and not bad; \
	print(f'perfbench-smoke ok: {len(results)} workloads, ' \
	      f'{sum(r[\"attempted\"] for r in results)} points, 0 failed' \
	      if ok else f'perfbench-smoke FAILED: {bad or \"no result lines\"}'); \
	sys.exit(0 if ok else 1)"

## Static sanity: byte-compile everything, then the simulator-aware
## static-analysis pass (determinism / cycle-safety / trace-discipline
## lints; stdlib-only, see docs/ANALYSIS.md).  PYTHONHASHSEED=random
## proves the lint pass itself is hash-seed-independent.
lint:
	$(PYTHON) -m compileall -q src tests benchmarks examples
	PYTHONHASHSEED=random PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro lint

## Warm-lint cache parity: a cold run and a warm (fully cached) run must
## emit byte-identical repro-lint/2 reports.  Uses a throwaway cache file
## so the developer's own warm cache is untouched.
lint-cache-parity:
	rm -f /tmp/repro-lint-parity-cache.json
	PYTHONHASHSEED=random PYTHONPATH=$(PYTHONPATH) \
		REPRO_LINT_CACHE=/tmp/repro-lint-parity-cache.json \
		$(PYTHON) -m repro lint --json /tmp/repro-lint-cold.json
	PYTHONHASHSEED=random PYTHONPATH=$(PYTHONPATH) \
		REPRO_LINT_CACHE=/tmp/repro-lint-parity-cache.json \
		$(PYTHON) -m repro lint --json /tmp/repro-lint-warm.json
	cmp /tmp/repro-lint-cold.json /tmp/repro-lint-warm.json
	@echo "lint-cache-parity ok: cold and warm reports byte-identical"
	rm -f /tmp/repro-lint-parity-cache.json /tmp/repro-lint-cold.json /tmp/repro-lint-warm.json

## Scenario smoke: every registered scenario runs end-to-end at quick
## scale through the scenario layer and must yield a result object
## (tests/test_scenarios.py holds the stricter non-empty-Report gate).
scenarios-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -c "\
	from repro.experiments.scenarios import SCENARIOS, ensure_registered; \
	from repro.experiments import ExperimentScale, ParallelSweepRunner; \
	ensure_registered(); \
	runner = ParallelSweepRunner(jobs=1); \
	scale = ExperimentScale.quick(); \
	results = {name: spec.run(scale, runner=runner) \
	           for name, spec in SCENARIOS.items()}; \
	assert all(r is not None for r in results.values()), results; \
	print(f'scenarios-smoke ok: {len(results)} scenarios')"

## DSL smoke: both example payloads must validate, then run end-to-end
## at quick scale through the scenario layer (the same gate CI applies
## to every YAML block in docs/SCENARIOS.md via tests/test_dsl_docs.py).
dsl-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro validate examples/multi_tenant.yaml
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro validate examples/custom_scenario.yaml
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro run examples/multi_tenant.yaml --quick --seed 7
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro run examples/custom_scenario.yaml --quick

## Observability smoke: run the trace example at quick scale and check the
## emitted file is valid Perfetto trace_event JSON covering all 4 layers.
trace-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) examples/trace_run.py fig16
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -c "\
	from repro.obs import load_trace, trace_layers; \
	events = load_trace('trace.json'); \
	assert trace_layers(events) >= {'dram', 'cxl', 'ndp', 'mem'}, trace_layers(events); \
	assert all('ts' in e and 'dur' in e for e in events if e.get('ph') == 'X'); \
	print(f'trace-smoke ok: {len(events)} events')"
	rm -f trace.json metrics.csv

## Fleet-telemetry smoke: a tiny sweep writes a run ledger, `status`
## summarizes it, and the summary must be non-empty (every job finished,
## per-job wall times and worker ids recorded).
telemetry-smoke:
	rm -f telemetry-smoke.jsonl
	PYTHONPATH=$(PYTHONPATH) REPRO_LEDGER=telemetry-smoke.jsonl \
		$(PYTHON) -m repro run fig3 --quick
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro status telemetry-smoke.jsonl
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -c "\
	import json, subprocess, sys; \
	out = subprocess.run( \
	    [sys.executable, '-m', 'repro', 'status', \
	     'telemetry-smoke.jsonl', '--json'], \
	    capture_output=True, text=True, check=True).stdout; \
	summary = json.loads(out); \
	assert summary['total_jobs'] > 0, summary; \
	assert summary['finished'] == summary['total_jobs'], summary; \
	assert summary['failed'] == 0, summary; \
	assert summary['slowest'], summary; \
	assert summary['per_worker'], summary; \
	print(f\"telemetry-smoke ok: {summary['finished']} jobs, \" \
	      f\"{summary['elapsed_s']:.1f}s\")"
	rm -f telemetry-smoke.jsonl

## Profiling smoke: one profiled figure run; check the ProfileReport's
## schema and that every system's phase decomposition sums to its total
## request latency, and that the flamegraph is non-empty.
profile-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro profile fig16 \
		--profile-out profile.json --flame-out profile.folded
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -c "\
	from repro.obs import PROFILE_SCHEMA, ProfileReport; \
	report = ProfileReport.load('profile.json'); \
	assert report.schema == PROFILE_SCHEMA; \
	assert report.systems, 'no systems profiled'; \
	assert all( \
	    sum(s['requests']['phases_cycles'].values()) \
	    == s['requests']['total_latency_cycles'] \
	    for s in report.systems.values()); \
	assert sum(1 for line in open('profile.folded')) > 0; \
	print(f'profile-smoke ok: {len(report.systems)} systems, ' \
	      f'{report.events_seen} events')"
	rm -f profile.json profile.folded
