package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"grove"
	"grove/internal/workload"
)

// Sizes at -scale 1. The issue's ny20k corpus is -scale 2: at 0.3 ms per
// generated record and 0.1 ms per ingested one it does not fit three
// set-ups plus a timed window into the driver's ~20 s per run.
const (
	baseRecords    = 10000 // NY-road-like records, edge domain 1000, 35–100 edges each
	basePool       = 4000  // uniform match pool and uniform path pool
	baseZipfStream = 5000  // Zipf(1.2) draws in all, from …
	zipfPools      = 20    // … this many independent pools, interleaved, of …
	zipfPoolSize   = 100   // … this many distinct 8-edge paths each
	baseZipfSample = 400   // leading draws the view advisor sees: 20 per pool
	viewsK         = 50    // graph views and aggregate views materialised, each
	walSamplePools = 5     // pools the write-side workloads select their views from
	batchSize      = 64
	baseIngestBoot = 1000 // records in the store before the WAL window opens
	baseIngest     = 6000 // records appended inside the ingest-wal window
	baseRecoverLog = 2000 // records left in the log recover-wal replays
	probeQueries   = 16   // agg-pool queries checked after ingest and recovery
)

// corpus is the whole input of a run, a function of (seed, scale) only. The
// program under test sees nothing but these records and graphs.
type corpus struct {
	seed  int64
	scale float64

	records  []*grove.Record
	measures []int64 // measures[i] = measures stored in records[:i]

	matchPool []*grove.Graph // UniformQueries(·, 16)
	aggPool   []*grove.Graph // UniformPathQueries(·, 4, 12)
	sample    []*grove.Graph // the head of zipf that view selection is given
	walSample []*grove.Graph // sample's draws from the first walSamplePools pools
	zipf      []*grove.Graph // 20 interleaved ZipfQueries(·, 100, 8, pathOnly) streams

	ingestBoot, ingest, recoverLog int
}

func scaled(base int, scale float64, floor int) int {
	n := int(math.Round(float64(base) * scale))
	if n < floor {
		n = floor
	}
	return n
}

// newCorpus generates records first and query pools after, from one
// generator, so queries are drawn from the walks the records were built from.
func newCorpus(seed int64, scale float64) (*corpus, error) {
	if scale <= 0 {
		return nil, fmt.Errorf("scale must be positive, got %v", scale)
	}
	c := &corpus{
		seed:       seed,
		scale:      scale,
		ingestBoot: scaled(baseIngestBoot, scale, 32),
		ingest:     scaled(baseIngest, scale, 64),
		recoverLog: scaled(baseRecoverLog, scale, 32),
	}
	n := scaled(baseRecords, scale, c.ingestBoot+c.ingest)
	gen, err := workload.NewGenerator(workload.NewRoadNetwork(1000), 35, 100, seed)
	if err != nil {
		return nil, err
	}
	c.records = make([]*grove.Record, n)
	c.measures = make([]int64, n+1)
	for i := range c.records {
		rec, err := gen.NextRecord()
		if err != nil {
			return nil, fmt.Errorf("record %d: %w", i, err)
		}
		c.records[i] = rec
		c.measures[i+1] = c.measures[i] + int64(rec.NumMeasures())
	}
	pool := scaled(basePool, scale, 2*batchSize)
	c.matchPool = gen.UniformQueries(pool, 16)
	c.aggPool = gen.UniformPathQueries(pool, 4, 12)
	// One Zipf(1.2) pool puts 28% of the draws on its top query, so the
	// stream's cost is that one query's cost and swings ±30% with the seed.
	// Interleaving independent pools keeps the skew and the sharing that
	// views exploit while the hot set becomes twenty queries, not one.
	per := scaled(baseZipfStream, scale, 10*zipfPools) / zipfPools
	subs := make([][]*grove.Graph, zipfPools)
	for i := range subs {
		subs[i] = gen.ZipfQueries(per, zipfPoolSize, 8, true)
	}
	for j := 0; j < per; j++ {
		for _, sub := range subs {
			c.zipf = append(c.zipf, sub[j])
		}
	}
	c.sample = c.zipf[:scaled(baseZipfSample, scale, zipfPools)]
	for i, g := range c.sample {
		if i%zipfPools < walSamplePools {
			c.walSample = append(c.walSample, g)
		}
	}
	return c, nil
}

func (c *corpus) totalMeasures() int64 { return c.measures[len(c.measures)-1] }

// keepRecords drops all but the first n records, so that the collector can
// free them: a generated record is some 60 KB of maps.
func (c *corpus) keepRecords(n int) {
	c.records = append([]*grove.Record(nil), c.records[:n]...)
}

// stamp describes the corpus for the line printed above each result.
func (c *corpus) stamp() string {
	return fmt.Sprintf("records=%d measures=%d match_pool=%d agg_pool=%d zipf_stream=%d ingest=%d+%d recover_log=%d digest=%016x",
		len(c.records), c.totalMeasures(), len(c.matchPool), len(c.aggPool), len(c.zipf),
		c.ingestBoot, c.ingest, c.recoverLog, c.digest())
}

// digest fingerprints the corpus: every record's measures and every pool
// graph's elements. Two corpora with the same digest drive the same work.
func (c *corpus) digest() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	str := func(s string) {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	for _, rec := range c.records {
		for _, k := range rec.Elements() {
			str(k.From)
			str(k.To)
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(rec.Measure(k).Value))
			h.Write(buf[:])
		}
		h.Write([]byte{1})
	}
	for _, pool := range [][]*grove.Graph{c.matchPool, c.aggPool, c.zipf} {
		for _, g := range pool {
			for _, k := range g.Elements() {
				str(k.From)
				str(k.To)
			}
			h.Write([]byte{2})
		}
		h.Write([]byte{3})
	}
	return h.Sum64()
}
