GO ?= go

.PHONY: build test loc race lint fuzz-smoke bench bench-smoke e2e-smoke examples-smoke durability shard-diff paged-diff check

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# Non-test Go lines outside benchmark/ and testdata/ — the ROADMAP's size
# measure — per package directory, then the total.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path '*/testdata/*' \
		| xargs wc -l | awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d  total\n", t }'

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
# relation RWMutex, registry, view advisor, graphdb facade, fault-injection
# FS, scatter-gather coordinator and concurrent WAL replay, the buffer
# pool's pinned frames) plus the root facade. The metrics and tracing
# package runs last and alone: its tracing-overhead gate times two engines
# against each other, and other packages' race tests on the same cores
# would widen that comparison's spread.
race:
	$(GO) vet ./...
	$(GO) test -race . ./internal/query/... ./internal/bitmap/... \
		./internal/colstore/... ./internal/view/... \
		./internal/graphdb/... ./internal/fsio/... ./internal/shard/... \
		./internal/wal/... ./internal/pagepool/...
	$(GO) test -race ./internal/obs/...

# Short fuzz pass over every decoder that consumes untrusted bytes: the
# bitmap wire format, the query parser, the colstore on-disk format, the
# CURRENT generation pointer, and the write-ahead log (op payloads and whole
# log files fed to the replay scanner); plus the bitmap read kernels (probe
# and gallop array ∩ array, dst as either operand, per-layout RanksInto, every
# kernel on range-sized bitsets of different lengths) against a map.
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
# the bitmap kernels: array ∩ run and array ∩ range-sized bitset AND, probe-or-gallop array ∩ array and its crossover, per-layout batch rank (§10);
# one add-record WAL frame decoded;
# one 67-edge record built, appended to a relation, and both; one 16-element query graph resolved to ids;
# the tracing-overhead gate: metrics plus tracing within 10% of instrumentation off.
bench-smoke:
	$(GO) test ./internal/query/ -run '^$$' -bench 'PathAgg|PlanCover|CoverPath' -benchtime 1x
	$(GO) test ./internal/colstore/ -run '^$$' -bench 'PageFault|MaterializeAggView' -benchtime 1x
	$(GO) test ./internal/shard/ -run '^$$' -bench 'Sharded|MergeAgg|MergeBitmaps|ReplayWAL' -benchtime 1x
	$(GO) test ./internal/bitmap/ -run '^$$' -bench 'AndInPlaceArrayRun|IntersectArrays|RanksInto' -benchtime 1x
	$(GO) test ./internal/wal/ -run '^$$' -bench WALDecodeAddRecord -benchtime 1x
	$(GO) test ./internal/graph/ -run '^$$' -bench 'LoadRecord|BuildRecord|BuildAndLoadRecord|Resolve' -benchtime 1x
	$(GO) test ./internal/obs/ -run TestObsOverheadSmoke -count=1 -v

# The end-to-end benchmark's oracle at smoke length (≈ 25 s on 2 cores): the
# three workloads that run the bitmap and gather kernels, agg-zipf-views, the
# one whose answers come from view-rewritten plans, agg-paged-1pct, the one
# whose answers pass through the buffer pool, and recover-wal, the one that
# recovers a 2-shard store from snapshot plus log (a load that replays other
# than recover_log ops counts as a failed call); every answer checked against
# the 1-shard in-memory view-less oracle. The benchmark exits non-zero on any
# wrong answer or failed call. Its numbers are not a measurement.
e2e-smoke:
	$(GO) run ./benchmark -workload match-uniform,agg-uniform,batch-sharded,agg-zipf-views,agg-paged-1pct,recover-wal -seconds 0.5

# Run every example program end to end (≈ 7 s on 2 cores, viewadvisor most
# of it). An example exits non-zero through log.Fatal on any failed call;
# their printed output is not checked.
examples-smoke:
	@for d in examples/*/; do \
		echo "go run ./$$d"; \
		$(GO) run ./$$d > /dev/null || exit 1; \
	done

# The durability gate — one commit protocol (DESIGN.md §11), one gate. Crash
# Save, WAL-logged ingest and checkpoints at every injected I/O fault (plain
# and torn-write modes) and prove Load always recovers: a complete old or new
# snapshot cut, flat and manifest layouts both; under a log, a clean prefix of
# the op sequence — every fsync-acknowledged op present, no partial op
# applied, sharded recovery bit-identical to single-shard, views maintained
# incrementally matching a from-scratch rebuild; an op the store refused is
# never logged, so recovery equals the live store under random refusals (page
# reads failing, empty tag keys) at 1 and 2 shards, and an op the log cannot
# frame is refused before it applies; a log torn inside a frame that declares
# new dictionary keys resumes and recovers to the acknowledged ops; replay
# refuses a non-canonical or cyclic row and a log of an unsupported format
# version that extends the loaded cut, and fails the load with the shard and
# LSN when a log's second read (the apply) differs from its first (the
# check); a store recovered from the log saves
# the bytes pinned at the last version-1 build. Then the facade-vs-coordinator
# byte-identity table, the shadowed-save refusal, recovery, GC, rollback and
# cancellation paths, and the frame/scan unit suite.
durability:
	$(GO) test ./internal/colstore/ -run \
		'TestSaveFaultSweep|TestLoadFallbackRecovery|TestSnapshotGCKeepCount|TestGenerationsInventoryAndRollback|TestConcurrentSaveLoadMutate|TestLoadRejectsRetiredFormats' -v
	$(GO) test ./internal/shard/ -run \
		'TestShardedSaveFaultSweep|TestShardedRepeatedCrashedSavesKeepRollbackCut|TestShardedSaveLoadRoundTrip|TestOneShardManifestLayout|TestRefusedWriteNotRecovered|TestRefusedOpsDifferential|TestUnencodableOpRefused|TestResumeAfterTornDeclaration|TestReplayRefusesBadRows|TestReplayRefusesUnsupportedVersion|TestReplayDetectsALogChangedBetweenReads' -v
	$(GO) test . -run \
		'TestWALFaultSweep|TestShardedWALFaultSweep|TestWALCheckpointFaultSweep|TestIncrementalViewDifferential|TestOpenDurableLifecycle|TestShardedLoadManifestFallbacks|TestWALGenMismatchSkipped|TestOneDurabilityPath|TestShadowedSaveRefused|TestReplayedSnapshotPinned|TestLogBytesPinned' -v
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
# at pool budgets down to 1%; a legacy snapshot of the retired xor, dict and
# rle block encodings is refused by name — with the zone-skip
# branch of the one path-aggregation executor engaged, every scalar (branching
# graphs, aggregate views, node measures, 1 and 3 shards) bit for bit the fold
# of its rows, the multi-block crash sweep green, the pool's gauge
# under its budget after a cut, the hot block-decode/zone-skip kernels and
# the page fault itself allocation-free on any mix of block lengths, cold and
# warm, and the pool in lockstep with its clock model. Appends and log replay
# go to the columns' resident tails and leave the paged prefixes on disk
# (resident bytes within the pool budget, block indexes and the appended
# values), a save joins prefix and tail into the same bytes as an in-memory
# store, and a write inside a prefix whose read fails changes nothing.
paged-diff:
	$(GO) test . -run 'TestPagedBitIdentical|TestPagedZoneSkipEngages|TestPagedShardedBitIdentical|TestPagedScalarMatchesRows|TestPagePoolGaugeHonoursACut|TestLegacyBlocksLoad|TestSaveBytesPinned|TestAppendsLeaveLoadedColumnsPaged|TestReplayLeavesPrefixesPaged|TestSaveAcrossPrefixTailBoundary' -v
	$(GO) test ./internal/colstore/ -run \
		'TestSaveFaultSweepMultiBlock|TestDecodeBlockAllocs|TestAggregateSkipAllocs|TestPageFaultAllocs|TestWarmPageFaultAllocs' -v
	$(GO) test ./internal/shard/ -run 'TestAppendEdgeFaultFailureChangesNothing' -v
	$(GO) test ./internal/pagepool/ -run 'TestPoolMatchesClockModel|TestRecyclingKeepsTheHitRatio' -v

# The full gate CI runs: vet, lint, build, tests, a 3 s fuzz each of the
# container kernels every multi-way AND runs (array ∩ array, and every kernel
# on range-sized bitsets of different lengths), of the bitmap decoder and of
# the query parser's round trip (every accepted statement renders to text
# that parses back to it), the smoke and differential gates,
# the example programs, then the race-detector pass (which re-vets; harmless and keeps `make race`
# self-contained).
check:
	$(GO) vet ./...
	$(MAKE) lint
	$(GO) build ./...
	$(GO) test ./...
	$(GO) test ./internal/bitmap/ -run '^$$' -fuzz FuzzIntersectKernels -fuzztime 3s
	$(GO) test ./internal/bitmap/ -run '^$$' -fuzz FuzzReadFrom -fuzztime 3s
	$(GO) test ./internal/query/ -run '^$$' -fuzz FuzzParse -fuzztime 3s
	$(MAKE) bench-smoke
	$(MAKE) e2e-smoke
	$(MAKE) examples-smoke
	$(MAKE) durability
	$(MAKE) shard-diff
	$(MAKE) paged-diff
	$(MAKE) race
