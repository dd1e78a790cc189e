package graph

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"

	"grove/internal/colstore"
	"grove/internal/fsio"
)

// Registry implements the "universally adopted schema" of §3.1: it assigns a
// stable column id to every structural element name so all records and
// queries refer to common identifiers. Ids are dense (0, 1, 2, …) and double
// as the column indexes of the master relation.
//
// The registry is safe for concurrent use: loaders assign ids while query
// engines look names up, so both paths take an internal RWMutex (lookups
// share the read lock).
type Registry struct {
	mu   sync.RWMutex
	ids  map[EdgeKey]colstore.EdgeID
	keys []EdgeKey
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{ids: make(map[EdgeKey]colstore.EdgeID)}
}

// ID returns the edge id of k, assigning the next free id on first use.
func (r *Registry) ID(k EdgeKey) colstore.EdgeID {
	r.mu.RLock()
	id, ok := r.ids[k]
	r.mu.RUnlock()
	if ok {
		return id
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if id, ok := r.ids[k]; ok { // assigned between the two locks
		return id
	}
	id = colstore.EdgeID(len(r.keys))
	r.ids[k] = id
	r.keys = append(r.keys, k)
	return id
}

// resolve fills row.Cells[i].Edge with the id of row.Keys[i], assigning ids
// in row order for keys seen for the first time. The common case — every
// element already known — is one read-lock section. A key is cloned only
// when it is assigned: row keys may be substrings of a write-ahead log frame,
// and the registry must not pin the frame.
func (r *Registry) resolve(row *Row) {
	r.mu.RLock()
	missing := -1
	for i, k := range row.Keys {
		id, ok := r.ids[k]
		if !ok {
			missing = i
			break
		}
		row.Cells[i].Edge = id
	}
	r.mu.RUnlock()
	if missing < 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := missing; i < len(row.Keys); i++ {
		k := row.Keys[i]
		id, ok := r.ids[k]
		if !ok {
			k = EdgeKey{From: strings.Clone(k.From), To: strings.Clone(k.To)}
			id = colstore.EdgeID(len(r.keys))
			r.ids[k] = id
			r.keys = append(r.keys, k)
		}
		row.Cells[i].Edge = id
	}
}

// Lookup returns the id of k without assigning.
func (r *Registry) Lookup(k EdgeKey) (colstore.EdgeID, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	id, ok := r.ids[k]
	return id, ok
}

// Key returns the element named by id.
func (r *Registry) Key(id colstore.EdgeID) (EdgeKey, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if int(id) >= len(r.keys) {
		return EdgeKey{}, false
	}
	return r.keys[id], true
}

// Len returns the number of registered elements (the edge-domain size).
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.keys)
}

// IDs maps a set of element keys to ids, assigning as needed.
func (r *Registry) IDs(keys []EdgeKey) []colstore.EdgeID {
	out := make([]colstore.EdgeID, len(keys))
	for i, k := range keys {
		out[i] = r.ID(k)
	}
	return out
}

// GraphIDs returns the ids of all elements of g, assigning as needed.
func (r *Registry) GraphIDs(g *Graph) []colstore.EdgeID {
	return r.IDs(g.Elements())
}

// Save writes the registry to path as JSON.
func (r *Registry) Save(path string) error { return r.SaveFS(fsio.OS(), path) }

// SaveFS is Save against an explicit filesystem, so the fault-injection
// tests can crash a coordinated save inside the registry write too.
func (r *Registry) SaveFS(fs fsio.FS, path string) error {
	type entry struct {
		From string `json:"from"`
		To   string `json:"to"`
	}
	r.mu.RLock()
	entries := make([]entry, len(r.keys))
	for i, k := range r.keys {
		entries[i] = entry{From: k.From, To: k.To}
	}
	r.mu.RUnlock()
	b, err := json.Marshal(entries)
	if err != nil {
		return fmt.Errorf("graph: save registry: %w", err)
	}
	// Durable and atomic (temp + fsync + rename): a crash mid-save must not
	// leave a truncated registry next to an intact relation snapshot.
	return fsio.WriteFileAtomic(fs, path, b)
}

// LoadRegistry reads a registry written by Save.
func LoadRegistry(path string) (*Registry, error) {
	return LoadRegistryFS(fsio.OS(), path)
}

// LoadRegistryFS is LoadRegistry against an explicit filesystem.
func LoadRegistryFS(fs fsio.FS, path string) (*Registry, error) {
	b, err := fsio.ReadFile(fs, path)
	if err != nil {
		return nil, fmt.Errorf("graph: load registry: %w", err)
	}
	type entry struct {
		From string `json:"from"`
		To   string `json:"to"`
	}
	var entries []entry
	if err := json.Unmarshal(b, &entries); err != nil {
		return nil, fmt.Errorf("graph: load registry: %w", err)
	}
	r := NewRegistry()
	for _, e := range entries {
		r.ID(EdgeKey{From: e.From, To: e.To})
	}
	return r, nil
}
