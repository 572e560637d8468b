GO ?= go
BENCH_DATE ?= $(shell date +%Y-%m-%d)
BENCH_OUT  ?= BENCH_$(BENCH_DATE).json

.PHONY: all vet build test test-cpu race bench bench-explore bench-smoke perfbench ci protocols dist-smoke jobd-smoke chaos-smoke crash-smoke obs-smoke

all: ci

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The search, harness and fleet tests at one and at four procs: a test
# whose outcome depends on GOMAXPROCS (worker counts default to it) fails
# here on any machine.
test-cpu:
	$(GO) test -cpu 1,4 ./internal/trace/... ./internal/harness/... ./internal/dist/...

# Race-check the parallel search layer (worker-pool Explore/Fuzz/Stress),
# the distributed coordinator/worker protocol, and the checking daemon —
# the ./internal/jobd/... glob includes the crashfs power-fail simulator.
race:
	$(GO) test -race ./internal/trace/... ./internal/harness/... ./internal/dist/... ./internal/jobd/...

# Full benchmark suite; takes a while. Archives the go-test JSON event
# stream as BENCH_<date>.json — one file per run is the perf trajectory.
bench:
	$(GO) test -run '^$$' -bench . -benchmem -count=1 -json ./... > $(BENCH_OUT)
	@grep -o '"Output":".*ns/op[^"]*"' $(BENCH_OUT) | sed -e 's/"Output":"//' -e 's/\\t/\t/g' -e 's/\\n"//' || true
	@echo wrote $(BENCH_OUT)

# The explorer benchmarks, repeated at one proc and at every proc: run it
# on two checkouts, alternately, to compare a change against its parent.
bench-explore:
	$(GO) test -run '^$$' -bench 'BenchmarkExplore(Engines|Parallel|Pruned|Symmetry)$$' -benchmem -count=6 -cpu 1,$$(nproc) .

# One iteration of every benchmark: catches bit-rot without the cost.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./...

# The repository's benchmark (perfbench/README.md): time to a verified
# verdict per workload, built from this checkout. Pass its flags in ARGS,
# e.g. make perfbench ARGS='--workload check-symmetry --seed 1 --trace 0'.
perfbench:
	bash perfbench/run.sh $(ARGS)

# Print the protocol registry; doubles as a smoke test that registration
# side effects are wired.
protocols:
	$(GO) run ./cmd/simulate -list

# Distributed-search smoke: one coordinator + two localhost TCP workers on
# the acceptance pair, byte-compared against the single-process report.
# Like `protocols`, a separate CI step rather than part of `ci`.
dist-smoke:
	$(GO) run ./cmd/distcheck -smoke -protocol firstvalue -n 4 -prune
	$(GO) run ./cmd/distcheck -smoke -protocol kset -n 4 -k 3 -prune
	$(GO) run ./cmd/distcheck -smoke -protocol firstvalue -n 4 -prune -symmetry
	$(GO) run ./cmd/distcheck -smoke -protocol kset -n 4 -k 3 -prune -symmetry

# Checking-daemon smoke: one checkd with two TCP workers runs two protocol
# jobs concurrently on the shared fleet, each report byte-compared against
# its single-process run. A separate CI step, like dist-smoke.
jobd-smoke:
	$(GO) run ./cmd/checkd -smoke

# Fault-tolerance smoke: the jobd scenario under a seeded fault schedule —
# one worker crashes and reconnects, one hangs until the heartbeat detector
# retires it, one needs several dial attempts — and every report must still
# be byte-identical to its single-process run. Two seeds, two schedules.
chaos-smoke:
	$(GO) run ./cmd/checkd -smoke -chaos 1
	$(GO) run ./cmd/checkd -smoke -chaos 20260808

# Observability smoke: the jobd scenario with the full flight recorder on —
# live registry, journal on disk, instrumented workers, admin HTTP listener.
# One real job end to end, then every endpoint must answer, every required
# metric series must be present, the per-job trace must span the lifecycle,
# and the instrumented report must stay byte-identical to the plain run.
obs-smoke:
	$(GO) run ./cmd/checkd -smoke -admin 127.0.0.1:0

# Crash-consistency smoke: the exhaustive power-fail matrix (every
# filesystem op × every meaningful tear, two seeds, both sync policies)
# plus a real kill -9 of a running checkd whose restarted process must
# resume the journaled snapshot and produce a byte-identical report.
crash-smoke:
	$(GO) test ./internal/jobd -run TestCrashMatrix -count=1
	$(GO) run ./cmd/checkd -smoke -kill

ci: vet build test test-cpu race bench-smoke
