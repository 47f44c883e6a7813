# Development entry points. `make test` is the tier-1 gate: it must collect
# and pass from a clean checkout (the repo once shipped with a collection
# error — duplicate test basenames without importlib import mode).

PYTHON ?= python
PYTHONPATH_PREFIX = PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH),)

.PHONY: test test-faults coverage check bench bench-pipeline bench-kernels bench-collect bench-service bench-scaleout-smoke bench-rebalance-smoke bench-json perfbench-selftest

test:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m pytest -x -q

# The fault-injection harness alone (torn writes, fsync crashes,
# mid-frame disconnects — tests/faults/): a named run for CI so a
# recovery regression is visible at a glance.
test-faults:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m pytest tests/faults -q

# Coverage gate over the collection stack (repro.pipeline).  The floor
# is a ratchet: raise it when coverage rises, never lower it to make a
# PR pass.  Needs pytest-cov (`pip install -e .[dev]`).
COV_FAIL_UNDER ?= 85
coverage:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m pytest -q \
		--cov=repro.pipeline --cov-report=term-missing:skip-covered \
		--cov-fail-under=$(COV_FAIL_UNDER)

# Tier-1 gate plus smoke runs of (a) the packed fast-sampler pipeline,
# (b) the durable-collection path — spill to a throwaway ShardStore,
# out-of-core replay + digest audit, then the exactly-once
# CollectionService round-trip with its blind-resend duplicate check,
# under a fresh random key — (c) the same under a shared --auth-key —
# and (d) the same through per-producer derived keys (KeyRegistry) —
# so none of them can silently break — plus (e) a smoke-profile run of
# the scale-out fleet benchmark (2 shard processes, tiny population) so
# the routed multi-process path is exercised on every check, and (f)
# the split-trust round (1 blinded collector + 2 share keepers, blind
# resends, combined decode asserted bit-identical to the direct tally),
# plus (g) the live-rebalance smoke: 2 shards grow to 3 under streaming
# producers, the migration pause recorded and exactness asserted.
check: test bench-scaleout-smoke bench-rebalance-smoke
	$(PYTHONPATH_PREFIX) $(PYTHON) -m repro.cli pipeline \
		--n 2000 --m 64 --shards 2 --chunk-size 256 \
		--sampler fast --packed --topk 3
	$(PYTHONPATH_PREFIX) $(PYTHON) -m repro.cli pipeline \
		--n 1000 --m 48 --shards 2 --chunk-size 128 \
		--sampler fast --packed --collect --spill-dir $$(mktemp -d)/round
	$(PYTHONPATH_PREFIX) $(PYTHON) -m repro.cli pipeline \
		--n 1000 --m 48 --shards 2 --chunk-size 128 \
		--sampler fast --packed --collect --spill-dir $$(mktemp -d)/round \
		--auth-key 00112233445566778899aabbccddeeff
	$(PYTHONPATH_PREFIX) $(PYTHON) -m repro.cli pipeline \
		--n 1000 --m 48 --shards 2 --chunk-size 128 \
		--sampler fast --packed --collect --spill-dir $$(mktemp -d)/round \
		--producer-key fleet-master-0001
	$(PYTHONPATH_PREFIX) $(PYTHON) examples/split_trust_round.py

# The benchmark suite uses bench_* naming so default collection skips it.
bench:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m pytest benchmarks -q \
		-o python_files='bench_*.py' -o python_functions='bench_*'

bench-pipeline:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m pytest benchmarks/bench_pipeline.py -q \
		-o python_files='bench_*.py' -o python_functions='bench_*'

# The two packed kernels at the perfbench record shapes, one round each:
# the popcount timed against the unpack-and-sum reference, and the
# per-column Bernoulli sampler against its raw-word floor, both in the
# same run.  Asserts only that the popcount equals its reference and
# that the sampler's output replays from a fresh generator.
bench-kernels:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m pytest \
		"benchmarks/bench_throughput.py::bench_popcount_kernel" \
		"benchmarks/bench_throughput.py::bench_sampler_kernel" -q \
		-o python_files='bench_*.py' -o python_functions='bench_*' \
		--repeat 1

# Durable-collection throughput (spill / replay), with a
# machine-readable record under benchmarks/results/BENCH_collect.json.
bench-collect:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m pytest benchmarks/bench_collect.py -q \
		-o python_files='bench_*.py' -o python_functions='bench_*' \
		--json benchmarks/results/BENCH_collect.json

# Exactly-once service: authenticated-ingest throughput (vs the raw
# socket path, with the <= 2.2x acceptance assertion) and restart-recovery
# latency, recorded under benchmarks/results/BENCH_service.json.
bench-service:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m pytest benchmarks/bench_service.py -q \
		-o python_files='bench_*.py' -o python_functions='bench_*' \
		--json benchmarks/results/BENCH_service.json

# Scale-out fleet ingest at smoke scale: 2 shard processes, 16 routed
# producers, no throughput assertion — a fast liveness check that the
# fork/route/aggregate path works end to end (full profile: bench-service).
bench-scaleout-smoke:
	BENCH_SCALEOUT_SMOKE=1 $(PYTHONPATH_PREFIX) $(PYTHON) -m pytest \
		"benchmarks/bench_service.py::bench_service_scaleout" -q \
		-o python_files='bench_*.py' -o python_functions='bench_*'

# Live rebalance at smoke scale: 2 shards grow to 3 while producers
# stream, the migration's wall time and observed ack pause recorded,
# exactly-once asserted across the move (full profile: bench-service).
bench-rebalance-smoke:
	BENCH_REBALANCE_SMOKE=1 $(PYTHONPATH_PREFIX) $(PYTHON) -m pytest \
		"benchmarks/bench_service.py::bench_service_rebalance" -q \
		-o python_files='bench_*.py' -o python_functions='bench_*'

# The repo benchmark's self-test: every perfbench workload at tiny size,
# untraced and traced, plus its leftover-process and failure checks.
# perfbench/layers.py wraps repro methods by name, so renaming one of
# them fails here instead of silently breaking the benchmark.
perfbench-selftest:
	$(PYTHON) perfbench/selftest.py

# Machine-readable perf trajectory: BENCH_*.json under benchmarks/results/.
bench-json:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m pytest benchmarks/bench_throughput.py -q \
		-o python_files='bench_*.py' -o python_functions='bench_*' \
		--json benchmarks/results/BENCH_throughput.json
	$(PYTHONPATH_PREFIX) $(PYTHON) -m pytest benchmarks/bench_pipeline.py -q \
		-o python_files='bench_*.py' -o python_functions='bench_*' \
		--json benchmarks/results/BENCH_pipeline.json
