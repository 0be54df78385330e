PY ?= python
PYTEST = PYTHONPATH=src $(PY) -m pytest

.PHONY: test robustness parallel obs obs-scrape-smoke runtime runtime-smoke bench bench-parallel bench-resilience bench-lifecycle bench-kernels serve-smoke serving trace-smoke chaos lifecycle kernels objective perf perf-trace

# Tier-1 suite (unit + property + integration), as CI runs it, with
# DeprecationWarnings promoted to errors: no code path may lean on a
# deprecated API (the repo's or a dependency's).
test:
	$(PYTEST) -x -q -W error::DeprecationWarning

# Serving smoke: publish a model to a registry, push a JSONL batch
# through the estimate-batch CLI, assert non-empty per-request output.
serve-smoke:
	PYTHONPATH=src $(PY) examples/serve_smoke.py

# Serving gate: the serving-marked tests (in-process service, shard
# lane, cache, registry, cross-path equivalence) with RuntimeWarnings
# promoted to errors, then the estimate-batch CLI smoke.
serving:
	$(PYTEST) -x -q -W error::RuntimeWarning -m serving
	PYTHONPATH=src $(PY) examples/serve_smoke.py

# Robustness gate: the robustness-marked tests alone for fast signal,
# then the full tier-1 suite with RuntimeWarnings promoted to errors so
# numeric sloppiness (overflow, invalid casts) cannot hide in a pass.
robustness:
	$(PYTEST) -x -q -W error::RuntimeWarning -m robustness
	$(PYTEST) -x -q -W error::RuntimeWarning

# Parallel-layer gate: the parity/executor/memo tests alone, with
# RuntimeWarnings promoted to errors — a worker that divides by zero or
# overflows must fail the gate, not just log.
parallel:
	$(PYTEST) -x -q -W error::RuntimeWarning -m parallel

# Observability gate: the obs-marked tests (tracer, registry, ring
# sampler, SLO burn rates, scrape endpoint, exporters, cost tree,
# cross-process trace propagation) with RuntimeWarnings promoted to
# errors, then the live scrape smoke against a real sharded service.
obs:
	$(PYTEST) -x -q -W error::RuntimeWarning -m obs
	PYTHONPATH=src $(PY) examples/scrape_smoke.py

# Scrape smoke alone: sharded service with an ephemeral scrape port
# must answer /metrics, /healthz, /slo and /spans with the repro_*
# series and SLOs the dashboards key on.
obs-scrape-smoke:
	PYTHONPATH=src $(PY) examples/scrape_smoke.py

# Tracing smoke: trace a CLI train + estimate end to end, assert the
# rendered cost tree accounts for the measured wall time within 5%.
trace-smoke:
	PYTHONPATH=src $(PY) examples/trace_smoke.py

# Runtime gate: the runtime-marked tests (config layering, context
# lifecycle, ctx parity, CLI teardown) with DeprecationWarnings promoted
# to errors, as in the tier-1 run.
runtime:
	$(PYTEST) -x -q -W error::DeprecationWarning -m runtime

# Chaos gate: the chaos-marked sharded-serving tests — seeded worker
# crashes, hangs, poison requests and supervisor kills — with
# RuntimeWarnings promoted to errors. The invariant under test: every
# admitted request's future resolves (result, typed error or deadline),
# whatever dies.
chaos:
	$(PYTEST) -x -q -W error::RuntimeWarning -m chaos

# Runtime smoke: one RuntimeContext drives train + serve + search end
# to end, then the teardown contract is asserted (trace/metrics files
# written, pool gone, closed context refuses work).
runtime-smoke:
	PYTHONPATH=src $(PY) examples/runtime_smoke.py

# Kernel gate: the kernels-marked tests (scratch arena, backend
# registry, chunked Huffman, fused-vs-reference bit-identity parity,
# the CA block scan against its block-major reference and the forest's
# packed-pass parity: mean and spread bit-identical to the per-tree
# walks) with RuntimeWarnings promoted to errors — a fused pass that
# overflows or divides by zero must fail loudly, not round differently.
kernels:
	$(PYTEST) -x -q -W error::RuntimeWarning -m kernels

# Lifecycle gate: the lifecycle-marked tests (outcome log, drift
# detector, registry promote/rollback, background retrain, canary
# promotion) with RuntimeWarnings promoted to errors.
lifecycle:
	$(PYTEST) -x -q -W error::RuntimeWarning -m lifecycle

# Objective gate: the objective-marked tests (Objective grammar,
# quality targeting, frontier queries, ratio bit-identity, cross-path
# differential) with DeprecationWarnings promoted to errors, as in the
# tier-1 run.
objective:
	$(PYTEST) -x -q -W error::DeprecationWarning -m objective

bench:
	cd benchmarks && PYTHONPATH=../src $(PY) -m pytest -q

# Parallel scaling smoke bench (writes BENCH_parallel_scaling.json at
# the repo root; FXRZ_BENCH_PARALLEL_FULL=1 for the 256^3 / 25-point /
# 8-way configuration).
bench-parallel:
	cd benchmarks && PYTHONPATH=../src $(PY) -m pytest -q bench_parallel_scaling.py

# Kernel throughput bench: per-compressor encode/decode MB/s on the
# Nyx baryon-density block with regression floors; writes
# BENCH_kernel_throughput.json at the repo root (streaming rows reuse
# one arena across repeats, cold rows rebuild scratch every call).
bench-kernels:
	cd benchmarks && PYTHONPATH=../src $(PY) -m pytest -q bench_compressor_throughput.py

# Serving-resilience bench: overload (shedding) + chaos (shard kills
# under load) phases against the sharded service; writes
# BENCH_serving_resilience.json at the repo root with p50/p99 latency
# and the admitted-request loss rate (must be 0).
bench-resilience:
	cd benchmarks && PYTHONPATH=../src $(PY) -m pytest -q bench_serving_resilience.py

# Online-learning bench: outcome-logging overhead (<= 3%), serving p99
# during a background retrain (<= 1.5x baseline) and the estimation
# error before vs after a canary promotion; writes
# BENCH_online_learning.json at the repo root.
bench-lifecycle:
	cd benchmarks && PYTHONPATH=../src $(PY) -m pytest -q bench_online_learning.py

# Repo benchmark: each BENCHMARK.json workload once (seed 1, 8 s window),
# one JSON result line per workload on stdout.
PERF_WORKLOADS = estimate-48 estimate-128 serve-48 compress-64
perf:
	for w in $(PERF_WORKLOADS); do \
		$(PY) perfbench/run.py --workload $$w --seed 1 --seconds 8 || exit 1; \
	done

# Per-layer trace of the two engine workloads (--trace 1): checks that
# every entry point the trace patches is still on the request path.
perf-trace:
	for w in estimate-48 serve-48; do \
		$(PY) perfbench/run.py --workload $$w --seed 1 --seconds 8 --trace 1 || exit 1; \
	done
