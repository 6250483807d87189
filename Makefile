# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test check lint chaos serve-soak simd-smoke serve-bench race bench microbench experiments examples fuzz clean

all: build test check

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

# simlint enforces the simulator's written contracts: determinism (no wall
# clocks, global rand, scheduler queries or order-sensitive map iteration
# in the simulator packages, and no such value reaching the counters or memo
# keys through any call chain), the ranked lock hierarchy across call chains
# (lockorder), cancellable kernel loops (ctxflow), copy-on-write snapshot
# arrays (cowshared), and recover-first goroutine entry points in the
# service (panicboundary). One command, one flag (-json). See docs/LINTING.md.
lint:
	$(GO) run ./cmd/simlint ./...

# The packages whose goroutines meet, for the race detector: the shootdown
# mailbox, the omp join, the parallel harness, npb, where team goroutines
# run whole kernels on contexts that must share no TLB or cache state, mpi,
# whose rank goroutines meet on its buffered control channels, and the page
# table, which every walk reads under its read lock while
# transparent-huge-page faults (thp, driven from team goroutines by core's
# tests) write it. `race` and `check` run the same list.
RACE_PKGS = ./internal/machine/ ./internal/omp/ ./internal/par/ ./internal/bench/ ./internal/cache/ ./internal/scash/ ./internal/profile/ ./internal/npb/ ./internal/mpi/ ./internal/core/ ./internal/thp/ ./internal/pagetable/

# Static and concurrency hygiene for the hot simulator paths: vet, gofmt
# drift (the gofmt guard walks the whole tree, including the simlint test
# corpora under internal/lint/*/testdata and cmd/simlint/testdata), simlint,
# and the race detector over RACE_PKGS in -short mode.
check: lint
	$(GO) vet ./...
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; fi
	$(GO) test -race -short -count=1 $(RACE_PKGS)

# Fault-injection soak: 50 seeded, replayable fault plans over CG/MG/SP.
# Every run must pass NPB verification with fault-free numerics, hold all
# internal/check invariants, and replay to bit-identical counters.
chaos:
	$(GO) run ./cmd/chaos

# Service-mode soak: seeded client misbehavior (disconnects, duplicates,
# oversized bodies, injected panics, starved deadlines) against an
# in-process simd server; every answer per config must be bit-identical
# and the typed counters must conserve. See docs/ROBUSTNESS.md.
serve-soak:
	$(GO) run ./cmd/chaos -serve -plans 300

# Short race-mode smoke over the simd service stack (the CI leg): the
# full simsrv suite exercises cancellation, panic quarantine, the admission
# scheduler (worker slots and footprint budget), the template pool, and
# cross-process single-flight on the shared disk cache — all under the race
# detector. internal/par is batch-harness code; check and race cover it.
simd-smoke:
	$(GO) test -race -count=1 ./internal/simsrv/ ./internal/memo/...

# Service-scale throughput floor: a mixed load on a warm-restarted server
# over a populated shared disk cache must beat the no-disk-cache
# single-template baseline by >= 3x. Also run as part of `make bench`; the
# tier-1 TestServiceWarmRestart checks the same load is answered entirely
# from cache. BenchmarkServeHit reports ns/op and allocs/op of one /run
# answered from the memo (a repeated body, answered without a decode, and a
# never-seen respelling, decoded and compiled first) and from disk, with no
# floor.
serve-bench:
	$(GO) test -run '^$$' -bench 'ServiceWarmRestart|ServeHit' ./internal/simsrv/

race:
	$(GO) test -race $(RACE_PKGS)

# Perf regression floors, as Go benchmarks in the packages they guard:
# - internal/machine: the dense, gather and random access patterns must
#   cost no more than 2x their committed ns per access, and random at most
#   200 ns on hosts with >= 4 procs;
# - internal/npb: the repeated CG sweep must run >= 3x faster through
#   snapshot fork + result memo than cold, with exactly 12 memo hits; and
#   4-thread CG >= 1.5x faster than 1-thread (skipped with a note on hosts
#   with fewer than 4 procs, where a time-sliced team cannot speed up);
# - internal/simsrv: the serve-bench floor, and the memo- and disk-hit
#   request cost without one.
# internal/machine's BenchmarkTranslate{L1Hit,L2Hit,Walk} report the ns per
# access of a 4 KB page-stride run whose every element has that DTLB
# outcome, internal/npb's BenchmarkRunKey the cost of one run key and
# BenchmarkSetup/<kernel> each kernel's class-S Setup (ns/op, B/op,
# allocs/op), all without a floor.
# End-to-end throughput is perfbench's (see BENCHMARK.json).
bench:
	$(GO) test -v -run '^$$' -bench . ./internal/machine/ ./internal/npb/ ./internal/simsrv/

microbench:
	$(GO) test -bench=. -benchmem ./...

# Full class-A reproduction of every table and figure (minutes).
experiments:
	$(GO) run ./cmd/experiments -class A
	$(GO) run ./cmd/experiments -class A -only extensions

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/cgsolver
	$(GO) run ./examples/stride
	$(GO) run ./examples/smt
	$(GO) run ./examples/mpihalo
	$(GO) run ./examples/custommachine

fuzz:
	$(GO) test -fuzz FuzzHierarchy -fuzztime 30s ./internal/tlb/
	$(GO) test -fuzz FuzzLinkedLRUEquivalence -fuzztime 30s ./internal/tlb/
	$(GO) test -fuzz FuzzHierarchyReference -fuzztime 30s ./internal/tlb/
	$(GO) test -fuzz FuzzLinkedLRUEquivalence -fuzztime 30s ./internal/cache/
	$(GO) test -fuzz FuzzAllocator -fuzztime 30s ./internal/scash/
	$(GO) test -fuzz FuzzGatherRange -fuzztime 30s ./internal/machine/
	$(GO) test -fuzz FuzzScalarFastPath -fuzztime 30s ./internal/machine/
	$(GO) test -fuzz FuzzCounters -fuzztime 30s ./internal/check/
	$(GO) test -fuzz FuzzForkEquivalence -fuzztime 30s ./internal/machine/
	$(GO) test -fuzz FuzzRunKey -fuzztime 30s ./internal/npb/

clean:
	$(GO) clean ./...
