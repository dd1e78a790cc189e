package query

import (
	"container/list"
	"strconv"
	"sync"

	"grove/internal/bitmap"
	"grove/internal/colstore"
)

// ResultCache memoizes structural answers keyed on the query's canonical
// edge set. Entries are valid only for the relation version they were
// computed at: ANY mutation (new record, measure, view, tag, delete)
// invalidates the whole cache, which keeps correctness trivial — the
// workloads grove targets are read-mostly between ingest batches (§2).
//
// The cache is split into shards selected by a hash of the key, so the
// workers of a batch do not serialize on a single mutex. Each shard
// is an independent LRU: when full, the least recently used entry of that
// shard is evicted (replacing the earlier whole-cache random eviction).
// Version invalidation is also per shard and lazy — a shard drops its
// entries the first time it is touched at a newer version.
type ResultCache struct {
	capacity int
	shards   []*cacheShard
}

const defaultCacheShards = 16

type cacheShard struct {
	mu        sync.Mutex
	cap       int
	version   uint64
	entries   map[string]*list.Element
	lru       *list.List // front = most recently used
	hits      int64
	misses    int64
	evictions int64
}

type cacheEntry struct {
	key    string
	answer *bitmap.Bitmap
}

// NewResultCache returns a cache holding up to capacity answers
// (capacity ≤ 0 selects 256). The shard count is fixed; each shard holds at
// least one entry, so tiny capacities degrade to per-shard direct-mapped
// caches rather than to a single contended LRU.
func NewResultCache(capacity int) *ResultCache {
	if capacity <= 0 {
		capacity = 256
	}
	c := &ResultCache{capacity: capacity, shards: make([]*cacheShard, defaultCacheShards)}
	per := capacity / defaultCacheShards
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		c.shards[i] = &cacheShard{
			cap:     per,
			entries: make(map[string]*list.Element, per),
			lru:     list.New(),
		}
	}
	return c
}

// cacheKey canonicalizes a query's edge-id universe. Hot path: plain
// strconv appends into one grown-once buffer (the earlier fmt.Fprintf
// version allocated per element).
func cacheKey(universe []colstore.EdgeID) string {
	buf := make([]byte, 0, 9*len(universe))
	for i, e := range universe {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendUint(buf, uint64(e), 16)
	}
	return string(buf)
}

// shard selects the shard for a key (FNV-1a over the key bytes).
func (c *ResultCache) shard(key string) *cacheShard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return c.shards[h%uint32(len(c.shards))]
}

// get returns a cached answer for the universe at the given relation
// version, or nil. Callers must not mutate the returned bitmap.
func (c *ResultCache) get(version uint64, key string) *bitmap.Bitmap {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.version != version {
		s.reset(version)
		s.misses++
		return nil
	}
	if el, ok := s.entries[key]; ok {
		s.lru.MoveToFront(el)
		s.hits++
		return el.Value.(*cacheEntry).answer
	}
	s.misses++
	return nil
}

// put stores an answer computed at the given version.
func (c *ResultCache) put(version uint64, key string, answer *bitmap.Bitmap) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.version != version {
		s.reset(version)
	}
	if el, ok := s.entries[key]; ok {
		el.Value.(*cacheEntry).answer = answer
		s.lru.MoveToFront(el)
		return
	}
	if s.lru.Len() >= s.cap {
		if oldest := s.lru.Back(); oldest != nil {
			s.lru.Remove(oldest)
			delete(s.entries, oldest.Value.(*cacheEntry).key)
			s.evictions++
		}
	}
	s.entries[key] = s.lru.PushFront(&cacheEntry{key: key, answer: answer})
}

// reset drops a shard's entries and moves it to the given version. Called
// with the shard lock held.
func (s *cacheShard) reset(version uint64) {
	s.entries = make(map[string]*list.Element, s.cap)
	s.lru.Init()
	s.version = version
}

// CacheStats is a snapshot of the cache's cumulative counters. Hits and
// misses count lookups; evictions count LRU displacements (version resets
// drop entries wholesale and are not counted as evictions).
type CacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
}

// Stats returns cumulative hit/miss/eviction counts across all shards.
func (c *ResultCache) Stats() CacheStats {
	var st CacheStats
	for _, s := range c.shards {
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.Evictions += s.evictions
		s.mu.Unlock()
	}
	return st
}

// EnableCache attaches a result cache to the engine (nil disables caching).
// The same cache may be shared by many engines — e.g. the per-worker clones
// of a batch — so repeated queries hit regardless of which worker
// computed them first.
func (e *Engine) EnableCache(c *ResultCache) { e.cache = c }
