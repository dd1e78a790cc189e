GO ?= go

.PHONY: build test race lint fuzz-smoke bench bench-smoke replay-smoke durability shard-diff paged-diff check

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# Project-specific static analysis (internal/lint via cmd/grovevet). Two
# tiers: per-function syntax/type checks (the colstore lock protocol, dropped
# errors, fsio-mediated persistence I/O, metric naming, the stdlib-only
# dependency policy, sync/atomic hygiene) and interprocedural dataflow over a
# module-wide call graph (context threading, goroutine join/recovery, lock
# ordering and blocking-under-lock, compiler-verified allocation-free
# //grove:hotpath functions). Exits non-zero on findings; -deadline doubles
# as the lint-runtime smoke — the whole suite, including the hotalloc
# `go build -gcflags=-m` pass, must finish inside 30s or the gate fails.
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
# log files fed to the replay scanner).
fuzz-smoke:
	$(GO) test ./internal/bitmap/ -fuzz FuzzReadFrom -fuzztime 3s
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

# One-iteration pass over the path-aggregation benchmarks: proves the
# vectorized measure path still builds, runs, and stays allocation-bounded
# without paying for a full benchmark run. The checked-in baseline is
# BENCH_pathagg.json (regenerate with
# `go test ./internal/query/ -run '^$$' -bench PathAgg -benchtime 5x`).
# The obs-overhead guard holds metrics+tracing near the <5% EXPERIMENTS.md
# expectation (10% tripwire budget: noise headroom on a contended box).
# The shard and bitmap lines also run the kernels under a sharded batch — the
# linear k-way merges and the galloping array ∩ run AND — with their
# allocation counts reported (the AllocsPerRun guards beside them run in
# `make test`). PathAgg includes the cold paged run (PathAggPagedCold: every
# query faults all its blocks through a 1% pool), and PageFault prices one
# fault per block encoding in ns/value and allocs/op — the decode gap the
# encoder's choice rule is built on (DESIGN.md §13). The last three are the
# write path's flat-row probes: one add-record frame decoded, one record
# appended below the coordinator, one whole recovery (1 000-record snapshot,
# 100 views, 2 000 logged records).
bench-smoke:
	$(GO) test ./internal/query/ -run '^$$' -bench PathAgg -benchtime 1x
	$(GO) test ./internal/colstore/ -run '^$$' -bench PageFault -benchtime 1x
	$(GO) test ./internal/shard/ -run '^$$' -bench 'Sharded|MergeAgg|MergeBitmaps|ReplayWAL' -benchtime 1x
	$(GO) test ./internal/bitmap/ -run '^$$' -bench AndInPlaceArrayRun -benchtime 1x
	$(GO) test ./internal/wal/ -run '^$$' -bench WALDecodeAddRecord -benchtime 1x
	$(GO) test ./internal/graph/ -run '^$$' -bench LoadRecord -benchtime 1x
	$(GO) test ./internal/bench/ -run TestObsOverheadSmoke -count=1 -v

# The workload record→replay round trip at smoke scale: capture a mixed
# workload on a single-shard store and replay it against 1/2/4-shard stores,
# requiring every replayed answer's digest to match the recording
# (grovebench exits non-zero on any mismatch).
replay-smoke:
	$(GO) run ./cmd/grovebench -exp replay -ny 2000 -q 20

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
# signed zeros, ±MaxFloat64, denormals, deletions, all four block encodings,
# single-shard and sharded, at pool budgets down to 1% — with the zone-skip
# scalar plan engaged, the multi-block crash sweep green, and the hot
# block-decode/zone-skip kernels allocation-free.
paged-diff:
	$(GO) test . -run 'TestPagedBitIdentical|TestPagedZoneSkipEngages|TestPagedShardedBitIdentical' -v
	$(GO) test ./internal/colstore/ -run \
		'TestSaveFaultSweepMultiBlock|TestDecodeBlockAllocs|TestAggregateSkipAllocs' -v

# The full gate CI runs: vet, lint, build, tests, the smoke and differential
# gates, then the race-detector pass (which re-vets; harmless and keeps
# `make race` self-contained).
check:
	$(GO) vet ./...
	$(MAKE) lint
	$(GO) build ./...
	$(GO) test ./...
	$(MAKE) bench-smoke
	$(MAKE) replay-smoke
	$(MAKE) durability
	$(MAKE) shard-diff
	$(MAKE) paged-diff
	$(MAKE) race
