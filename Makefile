# Development targets for the MNP reproduction. Everything uses only
# the standard Go toolchain.

GO        ?= go
BENCH_OUT ?= BENCH_sim.json

FUZZTIME ?= 10s

.PHONY: build test race race-short race-engine vet fuzz-short bench bench-smoke clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-short skips the long soak/golden simulations — the CI-friendly
# race pass.
race-short:
	$(GO) test -race -short ./...

# race-engine exercises the sharded lockstep engine under the race
# detector: the engine, tile-partition, and kernel-window unit tests,
# the sharded experiment suite (sequential-vs-sharded equivalence at
# shards 1 and 4, determinism with inline and parallel workers,
# sharded chaos), the tiled suite (the grid x workers{1,2,4} x
# repartitioning equivalence matrix, tiled chaos, repartition during
# fault windows, observer-replay ordering under migration), the
# mobility suite (the mobile equivalence matrix, churn chaos, and the
# static zero-cost check), and the sharded + mobile golden hashes
# (shards=4, workers 1 and 4). The engine
# package runs twice: once at the host's GOMAXPROCS, where the lockstep
# barrier spins before it parks whenever the executors of every engine
# in the process fit in GOMAXPROCS, and once at GOMAXPROCS=1, where every barrier wait parks at once —
# hosted runners have two or more cores, so without that line they
# would only exercise the spin path. -count=1 keeps the second pass
# from replaying the first one's cached result: the test cache does not
# key on GOMAXPROCS.
race-engine:
	$(GO) test -race ./internal/engine/ ./internal/sim/
	GOMAXPROCS=1 $(GO) test -race -count=1 ./internal/engine/
	$(GO) test -race ./internal/experiment/ -run 'TestSetupValidate|TestSharded|TestTiled|TestMobility'
	$(GO) test -race . -run 'TestShardedRunMatchesGolden|TestMobileRunMatchesGolden'

vet:
	$(GO) vet ./...

# fuzz-short runs each native fuzz target for a fixed small budget
# (override with FUZZTIME=30s etc.). The go tool accepts one -fuzz
# target per invocation, hence one line per target. The targets carry
# no build tags (native fuzzing needs none), so plain `make vet`
# already type-checks every fuzz file.
fuzz-short:
	$(GO) test -run '^$$' -fuzz 'FuzzMNPPacketSequence' -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -run '^$$' -fuzz 'FuzzRuntimeOps' -fuzztime $(FUZZTIME) ./internal/node/nodetest/
	$(GO) test -run '^$$' -fuzz 'FuzzRecordRoundTrip' -fuzztime $(FUZZTIME) ./internal/telemetry/
	$(GO) test -run '^$$' -fuzz 'FuzzScenarioParse' -fuzztime $(FUZZTIME) ./internal/scenario/
	$(GO) test -run '^$$' -fuzz 'FuzzGridIndex' -fuzztime $(FUZZTIME) ./internal/topology/
	$(GO) test -run '^$$' -fuzz 'FuzzIndexMoves' -fuzztime $(FUZZTIME) ./internal/topology/
	$(GO) test -run '^$$' -fuzz 'FuzzTilePartition' -fuzztime $(FUZZTIME) ./internal/engine/
	$(GO) test -run '^$$' -fuzz 'FuzzRLNCDecode' -fuzztime $(FUZZTIME) ./internal/rlnc/
	$(GO) test -run '^$$' -fuzz 'FuzzGossip' -fuzztime $(FUZZTIME) ./internal/gossip/
	$(GO) test -run '^$$' -fuzz 'FuzzKernelOps' -fuzztime $(FUZZTIME) ./internal/sim/

# bench runs the simulation-substrate micro-benchmarks plus the
# end-to-end Figure 8 regeneration and the sharded-engine scaling
# series, and appends the numbers (ns/op, B/op, allocs/op) as a
# history entry — keyed by git SHA and date — to $(BENCH_OUT), so the
# committed file accumulates a timeline across revisions. The
# micro-benchmarks get a large fixed iteration count so the lazily
# built radio tables amortize out (the F8-load kernel churn and
# carrier-sense benchmarks take well under a microsecond per op, so
# they get a million); the Fig8 and engine runs are seconds per
# iteration, so a couple suffice.
bench: build
	@rm -f bench.out
	$(GO) test -run '^$$' -bench 'BenchmarkMediumTransmit|BenchmarkKernelSchedule' \
		-benchmem -benchtime 2000x . | tee bench.out
	$(GO) test -run '^$$' -bench 'BenchmarkKernelTimerChurn|BenchmarkMediumBusy' \
		-benchmem -benchtime 1000000x . | tee -a bench.out
	$(GO) test -run '^$$' -bench 'BenchmarkGeometryBuild' \
		-benchmem -benchtime 20x . | tee -a bench.out
	$(GO) test -run '^$$' -bench 'BenchmarkRLNCDecode' \
		-benchmem -benchtime 100x ./internal/rlnc/ | tee -a bench.out
	$(GO) test -run '^$$' -bench 'BenchmarkIndexMove' \
		-benchmem -benchtime 2000x ./internal/topology/ | tee -a bench.out
	$(GO) test -run '^$$' -bench 'BenchmarkFig8ActiveRadioTime$$' \
		-benchmem -benchtime 2x . | tee -a bench.out
	$(GO) test -run '^$$' -bench 'BenchmarkEngineGrid' \
		-benchmem -benchtime 2x -timeout 30m . | tee -a bench.out
	$(GO) run ./tools/benchjson -out $(BENCH_OUT) < bench.out
	@echo "appended to $(BENCH_OUT)"

# bench-smoke is the CI-sized slice of `make bench`: the tiled
# engine-grid series (2x2; 2x2 on two executors at 1 and 2 workers,
# the worker curve; the same at 2 workers with one engine per processor
# at once; 4x4; 4x4 with the repartitioner; 4x4 mobile), one iteration
# per config, appended to the same SHA-keyed $(BENCH_OUT) history. The
# lines carry the custom "imbalance" metric, so every revision records
# a balance datapoint without paying for the full micro-benchmark sweep.
bench-smoke: build
	@rm -f bench-smoke.out
	$(GO) test -run '^$$' -bench 'BenchmarkEngineGrid/tiles' \
		-benchmem -benchtime 1x -timeout 40m . | tee bench-smoke.out
	$(GO) run ./tools/benchjson -out $(BENCH_OUT) < bench-smoke.out
	@echo "appended to $(BENCH_OUT)"

clean:
	rm -f bench.out bench-smoke.out $(BENCH_OUT)
