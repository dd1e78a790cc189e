GO ?= go

.PHONY: build test race lint fuzz-smoke bench bench-smoke e2e-smoke durability shard-diff paged-diff check

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# Project-specific static analysis (internal/lint via cmd/grovevet), nine
# analyzers in two tiers: per-function syntax/type checks (the colstore lock
# protocol, dropped errors, fsio-mediated persistence I/O, metric naming, the
# stdlib-only dependency policy, mixed atomic/plain field access) and
# interprocedural dataflow over a module-wide call graph (goroutine
# join/recovery, lock ordering and blocking-under-lock, compiler-verified
# allocation-free //grove:hotpath functions). Copied locks are go vet's
# -copylocks check, which `make check` runs first. Exits non-zero on
# findings; -deadline doubles as the lint-runtime smoke — the whole suite,
# including the hotalloc `go build -gcflags=-m` pass, must finish inside 30s
# or the gate fails.
lint:
	$(GO) run ./cmd/grovevet -deadline 30s

# Race-detector gate for the concurrent read path: vet everything, then run
# the packages that share state across goroutines (engine scratch pool,
# sharded result cache, relation RWMutex, registry, metrics endpoint, view
# advisor, graphdb facade, fault-injection FS, scatter-gather coordinator,
# the buffer pool's pinned frames) plus the root facade.
race:
	$(GO) vet ./...
	$(GO) test -race . ./internal/query/... ./internal/bitmap/... \
		./internal/colstore/... ./internal/obs/... ./internal/view/... \
		./internal/graphdb/... ./internal/fsio/... ./internal/shard/... \
		./internal/wal/... ./internal/pagepool/...

# Short fuzz pass over every decoder that consumes untrusted bytes: the
# bitmap wire format, the query parser, the colstore on-disk format, the
# CURRENT generation pointer, and the write-ahead log (op payloads and whole
# log files fed to the replay scanner); plus the bitmap read kernels (merge
# and gallop array ∩ array, per-layout RanksInto) against a map.
fuzz-smoke:
	$(GO) test ./internal/bitmap/ -fuzz FuzzReadFrom -fuzztime 3s
	$(GO) test ./internal/bitmap/ -fuzz FuzzIntersectKernels -fuzztime 3s
	$(GO) test ./internal/query/ -fuzz FuzzParse -fuzztime 3s
	$(GO) test ./internal/colstore/ -fuzz FuzzMeasureColumnRoundTrip -fuzztime 3s
	$(GO) test ./internal/colstore/ -fuzz FuzzReadMeasureColumn -fuzztime 3s
	$(GO) test ./internal/colstore/ -fuzz FuzzLoadCorrupt -fuzztime 3s
	$(GO) test ./internal/colstore/ -fuzz FuzzDecodeBlock -fuzztime 3s
	$(GO) test ./internal/colstore/ -fuzz FuzzBlockIndex -fuzztime 3s
	$(GO) test ./internal/colstore/ -fuzz FuzzCurrentPointer -fuzztime 3s
	$(GO) test ./internal/wal/ -fuzz FuzzWALRecord -fuzztime 3s
	$(GO) test ./internal/wal/ -fuzz FuzzWALReplay -fuzztime 3s

bench:
	$(GO) test -run xxx -bench . ./...

# One iteration per kernel benchmark, allocations reported: path aggregation (cold paged too) and view-rewrite planning at 0/100/1 000 views;
# one raw page fault and its pread floor (DESIGN.md §13), the view catalog rebuild at 1 000 views (§3);
# the sharded batch, its k-way merges and WAL replay below the coordinator;
# the bitmap kernels: array ∩ run AND, merge-or-gallop array ∩ array, per-layout batch rank (§10);
# one add-record WAL frame decoded;
# one record appended to a relation;
# the tracing-overhead gate: metrics plus tracing within 10% of instrumentation off.
bench-smoke:
	$(GO) test ./internal/query/ -run '^$$' -bench 'PathAgg|PlanCover|CoverPath' -benchtime 1x
	$(GO) test ./internal/colstore/ -run '^$$' -bench 'PageFault|MaterializeAggView' -benchtime 1x
	$(GO) test ./internal/shard/ -run '^$$' -bench 'Sharded|MergeAgg|MergeBitmaps|ReplayWAL' -benchtime 1x
	$(GO) test ./internal/bitmap/ -run '^$$' -bench 'AndInPlaceArrayRun|IntersectArrays|RanksInto' -benchtime 1x
	$(GO) test ./internal/wal/ -run '^$$' -bench WALDecodeAddRecord -benchtime 1x
	$(GO) test ./internal/graph/ -run '^$$' -bench LoadRecord -benchtime 1x
	$(GO) test ./internal/obs/ -run TestObsOverheadSmoke -count=1 -v

# The end-to-end benchmark's oracle at smoke length (≈ 22 s on 2 cores): the
# three workloads that run the bitmap and gather kernels, agg-zipf-views, the
# one whose answers come from view-rewritten plans, and agg-paged-1pct, the
# one whose answers pass through the buffer pool; every answer checked
# against the 1-shard in-memory view-less oracle. The benchmark exits
# non-zero on any wrong answer or failed call. Its numbers are not a
# measurement.
e2e-smoke:
	$(GO) run ./benchmark -workload match-uniform,agg-uniform,batch-sharded,agg-zipf-views,agg-paged-1pct -seconds 0.5

# The durability gate — one commit protocol (DESIGN.md §11), one gate. Crash
# Save, WAL-logged ingest and checkpoints at every injected I/O fault (plain
# and torn-write modes) and prove Load always recovers: a complete old or new
# snapshot cut, flat and manifest layouts both; under a log, a clean prefix of
# the op sequence — every fsync-acknowledged op present, no partial op
# applied, sharded recovery bit-identical to single-shard, views maintained
# incrementally matching a from-scratch rebuild. Then the facade-vs-coordinator
# byte-identity table, the shadowed-save refusal, recovery, GC, rollback and
# cancellation paths, and the frame/scan unit suite.
durability:
	$(GO) test ./internal/colstore/ -run \
		'TestSaveFaultSweep|TestLoadFallbackRecovery|TestSnapshotGCKeepCount|TestGenerationsInventoryAndRollback|TestConcurrentSaveLoadMutate|TestLoadRejectsRetiredFormats' -v
	$(GO) test ./internal/shard/ -run \
		'TestShardedSaveFaultSweep|TestShardedRepeatedCrashedSavesKeepRollbackCut|TestShardedSaveLoadRoundTrip|TestOneShardManifestLayout' -v
	$(GO) test . -run \
		'TestWALFaultSweep|TestShardedWALFaultSweep|TestWALCheckpointFaultSweep|TestIncrementalViewDifferential|TestOpenDurableLifecycle|TestShardedLoadManifestFallbacks|TestWALGenMismatchSkipped|TestOneDurabilityPath|TestShadowedSaveRefused' -v
	$(GO) test ./internal/wal/ -count=1
	$(GO) test ./internal/query/ -run 'Cancel|Batch' -v
	$(GO) test . -run 'TestStoreContextCancelled|TestStoreExecuteBatchContextCancelled|TestStoreBatchPanicIsolated' -v

# The sharding differential gate: the same workloads through 1-shard and
# N-shard stores must produce bit-identical answers (bitmaps, aggregate
# values including NaN/signed-zero, scan totals), at the coordinator and at
# the public API.
shard-diff:
	$(GO) test ./internal/shard/ -run 'TestDifferential' -v
	$(GO) test . -run 'TestShardedPublicDifferential' -v

# The paged-storage differential gate: a saved-and-reloaded paged store must
# return bit-identical answers to the in-memory store it was saved from —
# signed zeros, ±MaxFloat64, denormals, deletions, single-shard and sharded,
# at pool budgets down to 1%; a legacy snapshot holding all four block
# encodings loads bit-identically and re-saves raw — with the zone-skip
# scalar plan engaged, the multi-block crash sweep green, the pool's gauge
# under its budget after a cut, the hot block-decode/zone-skip kernels and
# the page fault itself allocation-free on any mix of block lengths, cold and
# warm, and the pool in lockstep with its clock model.
paged-diff:
	$(GO) test . -run 'TestPagedBitIdentical|TestPagedZoneSkipEngages|TestPagedShardedBitIdentical|TestPagePoolGaugeHonoursACut|TestLegacyBlocksLoad|TestSaveBytesPinned' -v
	$(GO) test ./internal/colstore/ -run \
		'TestSaveFaultSweepMultiBlock|TestDecodeBlockAllocs|TestAggregateSkipAllocs|TestPageFaultAllocs|TestWarmPageFaultAllocs' -v
	$(GO) test ./internal/pagepool/ -run 'TestPoolMatchesClockModel|TestRecyclingKeepsTheHitRatio' -v

# The full gate CI runs: vet, lint, build, tests, the smoke and differential
# gates, then the race-detector pass (which re-vets; harmless and keeps
# `make race` self-contained).
check:
	$(GO) vet ./...
	$(MAKE) lint
	$(GO) build ./...
	$(GO) test ./...
	$(MAKE) bench-smoke
	$(MAKE) e2e-smoke
	$(MAKE) durability
	$(MAKE) shard-diff
	$(MAKE) paged-diff
	$(MAKE) race
