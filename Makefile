# Single source of truth for the commands CI and humans run.
# All targets honour REPRO_TRIALS / REPRO_WORKERS from the environment.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test bench bench-serving bench-fleet bench-all lint format suite docs-check resume-smoke fleet-drill

test:
	$(PYTHON) -m pytest -x -q

bench:
	REPRO_TRIALS=$${REPRO_TRIALS:-2} REPRO_WORKERS=$${REPRO_WORKERS:-2} \
		$(PYTHON) -m pytest benchmarks/ -x -q

# Batched-serving modeled-latency gate (inference scheduler, Rec. 1):
# outcome invariance plus the >20%-regression gate against
# benchmarks/baselines/BENCH_serving.json.  Emits BENCH_serving.json.
bench-serving:
	REPRO_TRIALS=$${REPRO_TRIALS:-2} \
		$(PYTHON) -m pytest benchmarks/bench_serving.py -x -q -s

# Fleet dispatch speedup (one pipelined streaming wave vs per-cell
# barriered batches) on a straggler-shaped synthetic sweep, with the
# byte-identical equivalence assert and the >20%-regression gate against
# benchmarks/baselines/BENCH_fleet.json.  Emits BENCH_fleet.json.
bench-fleet:
	REPRO_TRIALS=$${REPRO_TRIALS:-2} \
		$(PYTHON) -m pytest benchmarks/bench_fleet.py -x -q -s

# The gated benchmarks CI runs, in one target.
bench-all: bench-serving bench-fleet

# Crash/resume drill on the fleet ledger: kill a sweep mid-run, restart
# against the same ledger, require only the lost episodes to re-run and
# the aggregates to come back byte-identical.
resume-smoke:
	$(PYTHON) scripts/resume_smoke.py

# Multi-process kill-and-steal drill: N real shard processes against one
# ledger, one SIGKILLed mid-sweep; survivors must steal its leases, the
# restored aggregates must match a serial reference byte-for-byte, and
# `fleet status` must exit 0.  Run twice: plain, then with batched
# flushes + compaction engaged.
fleet-drill:
	$(PYTHON) scripts/fleet_drill.py --shards 3
	$(PYTHON) scripts/fleet_drill.py --shards 3 --flush 0.05 --compact 20

lint:
	ruff check .
	ruff format --check .

# Markdown link check over README.md/docs/, REPRO_* knob coverage (the
# serving guide must cover the serving knobs), and doctests — both on
# every module that carries them and on the >>> examples embedded in
# the markdown docs themselves.
docs-check:
	$(PYTHON) scripts/check_docs.py

format:
	ruff check --fix .
	ruff format .

suite:
	$(PYTHON) -m repro.experiments.suite
