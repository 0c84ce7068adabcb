# Convenience targets for the repro library.

PYTHON ?= python3

.PHONY: install check test fuzz-smoke fuzz-campaign fuzz-distill bench bench-json bench-telemetry bench-replay bench-probes bench-quick examples lint clean

install:
	$(PYTHON) -m pip install -e . --no-build-isolation || \
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# The pre-merge gate: byte-compile everything, run the tier-1 suite,
# and import-smoke every benchmark module (catches drift in the
# benchmark drivers without paying for a timed run).  The reduced-scale
# benchmark runs write and schema-validate their results in a temp
# directory (REPRO_BENCH_OUT), so a passing check leaves the tracked
# snapshots untouched; the standalone bench-* targets refresh them.
check:
	PYTHONPATH=src $(PYTHON) -m compileall -q src
	PYTHONPATH=src $(PYTHON) -m pytest tests/ -x -q
	@for bench in benchmarks/bench_*.py; do \
		echo "import $$bench"; \
		PYTHONPATH=src:benchmarks $(PYTHON) -c \
			"import importlib, os; \
			 importlib.import_module( \
			     os.path.splitext(os.path.basename('$$bench'))[0])" \
			|| exit 1; \
	done
	@tmp=$$(mktemp -d) && \
	$(MAKE) bench-json REPRO_BENCH_SCALE=0.1 REPRO_BENCH_OUT=$$tmp && \
	$(MAKE) bench-telemetry REPRO_BENCH_OUT=$$tmp && \
	$(MAKE) bench-replay REPRO_BENCH_REPLAY_CYCLES=4000 \
		REPRO_BENCH_OUT=$$tmp && \
	$(MAKE) bench-probes REPRO_BENCH_VECTORS=4096 \
		REPRO_BENCH_OUT=$$tmp && \
	rm -rf $$tmp
	$(MAKE) fuzz-campaign
	@echo "check passed"

# Short differential-fuzzing campaign at a fixed seed; the exit code
# asserts that no technique/backend/execution-shape disagreement was
# found (a failure writes its shrunk reproducer to a temp corpus and
# fails the target).
fuzz-smoke:
	@tmp=$$(mktemp -d) && \
	PYTHONPATH=src $(PYTHON) -m repro.cli fuzz --seed 1990 \
		--budget-seconds 20 --corpus $$tmp/corpus && \
	rm -rf $$tmp

# The continuous campaign (~120 s budget): deterministic coverage
# preamble over every execution surface (scalar, batched, packed,
# sequential replay w/ restore, probed, faults), random lattice exploration for the rest of the
# budget, then the perf oracles against a machine-calibrated envelope.
# --perf auto enforces the throughput floors except under CI=1 or on
# <4-CPU machines, where measurements reflect contention, not code —
# there the oracle still measures and prints flags (observe-only).
fuzz-campaign:
	@tmp=$$(mktemp -d) && \
	PYTHONPATH=src $(PYTHON) -m repro.cli fuzz campaign --seed 1990 \
		--budget-seconds 90 --corpus $$tmp/corpus --perf auto \
		--envelope $$tmp/envelope.json \
		--perf-artifacts $$tmp/artifacts && \
	rm -rf $$tmp

# Dry-run corpus distillation: shows which committed reproducers are
# subsumed (smaller entries covering the same lattice point) and
# asserts losslessness.  Re-run with APPLY=1 to delete them.
fuzz-distill:
	PYTHONPATH=src $(PYTHON) -m repro.cli fuzz distill \
		--corpus fuzz-corpus $(if $(APPLY),--apply,)

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Reduced-scale packed-throughput measurement: refreshes
# benchmarks/results/packed_throughput.{txt,json} and the repo-root
# BENCH_packed.json snapshot, then schema-validates the emitted JSON.
# Scale/vector knobs pass through the REPRO_BENCH_* environment.
bench-json:
	PYTHONPATH=src:benchmarks $(PYTHON) benchmarks/bench_packed_throughput.py

# Telemetry overhead budgets: refreshes
# benchmarks/results/telemetry_overhead.{txt,json} and the repo-root
# BENCH_telemetry.json snapshot, asserting disabled instrumentation
# costs <= 2% and enabled <= 5% on the packed C-backend workload.
bench-telemetry:
	PYTHONPATH=src:benchmarks $(PYTHON) benchmarks/bench_telemetry_overhead.py

# Sequential replay measurement: refreshes
# benchmarks/results/replay.{txt,json} and the repo-root
# BENCH_replay.json snapshot, asserting replay throughput clears the
# cycles/s floor, checkpoint -> restore -> continue is bit-identical
# to the uninterrupted run on every engine and backend, and a
# single-gate edit recompiles only its own fanin cone (warm rebuild
# faster than cold on the C backend).  Knobs:
# REPRO_BENCH_REPLAY_{CYCLES,BITS} and REPRO_BENCH_BACKEND.
bench-replay:
	PYTHONPATH=src:benchmarks $(PYTHON) benchmarks/bench_replay.py

# Compiled-in probe overhead: refreshes
# benchmarks/results/probes.{txt,json} and the repo-root
# BENCH_probes.json snapshot, asserting the probes-off (<= 2%) and
# probes-on (<= 25%) budgets on the batched C path and that the
# instrumented fast path's ActivityReport is bit-identical to the
# history-based scalar reference.  Knobs: REPRO_BENCH_{SCALE,VECTORS}.
bench-probes:
	PYTHONPATH=src:benchmarks $(PYTHON) benchmarks/bench_probes.py

bench-quick:
	REPRO_BENCH_SUITE=c432,c880 REPRO_BENCH_VECTORS=64 \
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -q

examples:
	for script in examples/*.py; do \
		echo "== $$script"; \
		$(PYTHON) $$script > /dev/null || exit 1; \
	done
	@echo "all examples ran"

clean:
	rm -rf .pytest_cache .hypothesis .benchmarks build dist *.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
