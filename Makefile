# AdaVP reproduction — build/test entry points.
#
#   make build        compile every package and command
#   make test         run the full test suite
#   make race         run the concurrency-sensitive packages under the race detector
#   make vet          static analysis (go vet) and the gofmt gate
#   make lint         project-specific analyzers (cmd/adavplint): determinism,
#                     hot-path allocations, band safety, goroutine leaks, pool pairing
#   make escapecheck  compiler escape-analysis gate: fail if any
#                     //adavp:hotpath function gains a heap escape not in
#                     the committed ESCAPES.baseline
#   make cover        whole-tree coverage with a per-package table, failing below
#                     the COVER_FLOOR baseline
#   make bench-smoke  run every workload of the repository's benchmark (bench/,
#                     BENCHMARK.json) at toy scale with its output checks on,
#                     then the bench module's own tests
#   make loadgen-bench regenerate the committed serving-layer SLO artifact
#                     (BENCH_serve.json) from the canonical loadgen matrix
#   make loadgen-smoke run the loadgen bench matrix to a throwaway file with
#                     the schema check on — proves the harness end to end
#   make soak         bounded chaos soak under the race detector: same-seed sim
#                     soak pair (byte parity) then a wall-clock live soak, both
#                     ending in machine-checked invariant reports
#   make check        everything CI runs: build + vet + lint + escapecheck +
#                     test + race + bench-smoke + loadgen-smoke (catch harness
#                     rot without paying bench time); the test suite includes
#                     the long-virtual-horizon chaos soak

GO ?= go

# Coverage floor for `make cover` (total statement coverage, percent):
# measured minus one. The suite sits at 82.9%; the floor trails it so honest
# refactors don't flap, while a PR that lands a subsystem without tests fails
# the gate.
COVER_FLOOR ?= 81.9

.PHONY: build test race vet lint escapecheck cover check bench-smoke loadgen-bench loadgen-smoke soak clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Packages with real concurrency: the live pipeline and its supervision
# layer (including the staged cross-frame pipeline — prefetch/reorder under
# concurrent cancellation), the fault injectors, the observability registry
# (scraped while the pipeline writes), plus everything that drives or
# implements the par.Rows worker pool (kernels, detector, flow,
# renderer, tracker).
race:
	$(GO) test -race ./internal/rt/ ./internal/fault/ ./internal/guard/ ./internal/sim/ \
		./internal/par/ ./internal/imgproc/ ./internal/flow/ ./internal/video/ \
		./internal/detect/ ./internal/track/ ./internal/obs/ ./internal/serve/ \
		./internal/serve/loadtest/ ./internal/chaos/

# go vet, then gofmt: any non-testdata file gofmt would rewrite fails the
# target (fixtures under testdata/ are allowed their own layout).
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l . | grep -v '/testdata/'); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

# The five invariants DESIGN.md §9/§15 document: detrand, hotalloc,
# bandsafe, leakygo, poolpair — detrand and hotalloc interprocedural over the
# module-wide call graph. Exits non-zero on any finding.
lint:
	$(GO) run ./cmd/adavplint

# Compiler escape-analysis gate (DESIGN.md §15): parses `go build
# -gcflags=-m` diagnostics, attributes each heap escape to the
# //adavp:hotpath function containing it, and fails on any escape the
# committed ESCAPES.baseline does not acknowledge. Refresh the baseline
# after a justified change with `go run ./cmd/escapecheck -update`.
escapecheck:
	$(GO) run ./cmd/escapecheck

# Whole-tree statement coverage with a recorded floor: fails when total
# coverage drops below COVER_FLOOR (see the variable above for the policy).
# Ends with the per-package figures, lowest first, cut from the same profile.
cover:
	$(GO) test -coverprofile=$(or $(TMPDIR),/tmp)/adavp_cover.out ./...
	@awk 'NR > 1 { pkg = $$1; sub(/\/[^\/]*$$/, "", pkg); n[pkg] += $$2; if ($$3 > 0) hit[pkg] += $$2 } \
		END { for (p in n) printf "%6.1f%%  %s\n", 100 * hit[p] / n[p], p }' \
		$(or $(TMPDIR),/tmp)/adavp_cover.out | sort -n
	@total=$$($(GO) tool cover -func=$(or $(TMPDIR),/tmp)/adavp_cover.out \
		| awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit !(t+0 >= f+0) }' \
		|| { echo "coverage $$total% fell below the $(COVER_FLOOR)% floor"; exit 1; }

# The repository's benchmark (bench/README.md) at toy scale: one second per
# workload, non-zero exit when an output check fails. bench/ is a module of
# its own, so the root `go test ./...` does not reach its tests; this does.
# For measurements run `bash bench/run.sh --workload <w> --seed <n>`.
bench-smoke:
	bash bench/run.sh --smoke --seconds 1
	cd bench && $(GO) test ./...

# Serving-layer SLO benchmark: the canonical load-generator matrix (1000
# streams over 8 slots with churn, flash crowds and setting skew, batch
# sweep B=1/4/8, plus the request-bound pipelined pair at prepare depth
# 1 vs 3) into the committed BENCH_serve.json. The harness is
# virtual-clock deterministic, so the artifact only changes when the
# scheduler or latency model does — and then the diff is the review story.
# The run fails unless every batched scenario beats the unbatched baseline
# on p95 slot-wait and SLO attainment, and the pipelined scenario beats
# its sequential-prepare reference on throughput with prepare time hidden.
# BENCH_serve.json (and servebench_test.go, which byte-compares it) is a
# parity pin on the scheduler, not a performance claim and not a second copy
# of what bench/ measures: keep it.
loadgen-bench:
	$(GO) run ./cmd/adavp-loadgen -bench -out BENCH_serve.json

# Same matrix to a throwaway file: proves the load generator, the schema
# check and the batched-beats-unbatched gate end to end (sub-second run).
loadgen-smoke:
	$(GO) run ./cmd/adavp-loadgen -bench \
		-out $(or $(TMPDIR),/tmp)/adavp_bench_serve_smoke.json

# Hostile-scenario chaos soak (DESIGN.md §13), bounded to ~90s of live soak
# on top of the deterministic sim pair, run under the race detector: 8 streams
# over 2 detector slots with scenario churn, identity churn and the full
# fault taxonomy at rate 0.08. Exits non-zero if any invariant report shows a
# violation.
soak:
	$(GO) run -race ./cmd/adavp -soak -streams 8 -detector-slots 2 \
		-churn-rate 0.25 -fault-rate 0.08 -fault-burst 2 -soak-minutes 1 -seed 1

check: build vet lint escapecheck test race bench-smoke loadgen-smoke

clean:
	$(GO) clean ./...
