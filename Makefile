# Single source of truth for the commands CI and humans run.
# All targets honour REPRO_TRIALS / REPRO_WORKERS from the environment.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test bench bench-serving bench-fleet bench-all lint format suite suite-identity docs-check resume-smoke e2e-probes examples reach

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

# The two gated benchmarks, in one target (CI's `make bench` runs them too).
bench-all: bench-serving bench-fleet

# Crash/resume drill on the checkpoint ledger, in two phases: a sweep
# stopped by an injected crash, then a sweep in a child interpreter
# SIGKILLed mid-run.  Each restart must re-run only the lost episodes
# and return aggregates byte-identical to an uninterrupted serial run.
resume-smoke:
	$(PYTHON) scripts/resume_smoke.py

# Self-test of the end-to-end benchmark (e2ebench/): one reduced traced
# and untraced pass per workload.  Fails when a change deletes or renames
# a name e2ebench/probes.py wraps, or moves a digest under tracing.
e2e-probes:
	$(PYTHON) -m pytest e2ebench/test_probes.py -q

# Run every examples/*.py end to end at one trial per cell; stops at the
# first example that exits non-zero.
examples:
	@for example in examples/*.py; do \
		echo "== $$example"; \
		REPRO_TRIALS=1 $(PYTHON) $$example || exit 1; \
	done

# Reach ratchet: runs CI's run set (the one-trial suite serially and at
# 2 workers, every example, the golden grid, resume-smoke, the benchmarks
# at 2 trials and 2 workers, one e2ebench pass per workload) under a
# sys.setprofile hook, and fails on any src/repro function that none of
# them calls unless scripts/reach.py allowlists it, and on any
# allowlisted function that one of them calls.  A static check does the
# same for attributes: every attribute a src/repro class declares must be
# read by name somewhere in src/repro, or be allowlisted with its reader.
reach:
	$(PYTHON) scripts/reach.py

lint:
	ruff check .
	ruff format --check .

# Markdown link check over README.md/docs/, backticked file references
# that name no file, `path.py: name` spans naming nothing that file
# defines, REPRO_* knob coverage (the serving guide must cover
# the serving knobs), every quoted "N grid cells" against the record
# count of the golden episodes file, and doctests — both on every module
# that carries them and on the >>> examples embedded in the markdown
# docs themselves.
docs-check:
	$(PYTHON) scripts/check_docs.py

format:
	ruff check --fix .
	ruff format .

suite:
	$(PYTHON) -m repro.experiments.suite

# The report must not depend on how it ran: at one trial per cell, a
# serial run into a fresh ledger, a 2-worker run without one, and a run
# resumed against the full ledger must print identical reports (timing
# line aside), and the resume must append nothing to the ledger.
suite-identity:
	$(PYTHON) scripts/suite_identity.py
