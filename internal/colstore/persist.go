package colstore

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"strings"

	"grove/internal/agg"
	"grove/internal/bitmap"
	"grove/internal/fsio"
	"grove/internal/pagepool"
)

// On-disk layout: a store directory holding snapshot generations (see
// generation.go); each generation directory holds
//
//	manifest.json — schema: record count, partition width, edge ids, views
//	data.bin      — column payloads, in manifest order
//
// Measure columns are stored as presence bitmap + value payload, so NULLs
// occupy no space on disk either. The values are stored paged: a block index
// (per-block encoding tag, payload length, value count and zone map, see
// paged.go) followed by the compressed block payloads. Snapshots load lazily
// — only the presence bitmaps and block indexes are decoded up front; value
// blocks fault in through the relation's buffer pool on first access.

type manifest struct {
	FormatVersion int    `json:"format_version"`
	NumRecords    uint32 `json:"num_records"`
	PartWidth     int    `json:"partition_width"`
	// DataChecksum is the CRC-32C of data.bin, verified on Load so silent
	// corruption is caught before a damaged column is queried.
	DataChecksum uint32         `json:"data_checksum"`
	Edges        []manifestEdge `json:"edges"`
	Views        []manifestView `json:"views"`
	AggViews     []manifestAgg  `json:"agg_views"`
	Tags         []manifestTag  `json:"tags,omitempty"`
	// HasDeleted marks that a deleted-records bitmap follows the tag
	// bitmaps in data.bin.
	HasDeleted bool `json:"has_deleted,omitempty"`
}

type manifestTag struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

type manifestEdge struct {
	ID         EdgeID `json:"id"`
	HasMeasure bool   `json:"has_measure"`
	// MeasureNames lists the named measure columns of this edge, sorted.
	MeasureNames []string `json:"measure_names,omitempty"`
}

type manifestView struct {
	Name  string   `json:"name"`
	Edges []EdgeID `json:"edges"`
}

type manifestAgg struct {
	Name    string   `json:"name"`
	Path    []EdgeID `json:"path"`
	Func    string   `json:"func"`
	Measure string   `json:"measure,omitempty"` // measure name ("" = default)
}

// formatVersion is the one snapshot format Save writes and Load accepts
// (paged measure columns); any other version is rejected by name.
const formatVersion = 2

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Save writes the relation to dir as a new snapshot generation and
// atomically installs it (see generation.go for the layout). A crash or I/O
// failure at any point leaves the previously installed generation intact
// and loadable — Save never modifies an existing snapshot in place.
func (r *Relation) Save(dir string) error { return r.SaveFS(fsio.OS(), dir) }

// SaveFS is Save against an explicit filesystem; the fault-injection tests
// use it to crash the save at every individual I/O operation.
//
// Overlapping SaveFS calls serialize on an internal mutex, each producing
// its own complete generation. The relation's read lock is held only while
// the snapshot bytes are written, so concurrent queries proceed throughout
// and writers wait only for that phase.
func (r *Relation) SaveFS(fs fsio.FS, dir string) error {
	_, err := r.SaveFSGen(fs, dir)
	return err
}

// SaveFSGen is SaveFS reporting the name of the generation it installed. The
// sharded coordinator records that name in its cross-shard manifest so Load
// can pin every shard to one consistent generation cut.
func (r *Relation) SaveFSGen(fs fsio.FS, dir string) (string, error) {
	r.saveMu.Lock() //grovevet:ignore lockorder saveMu exists to serialize whole snapshot commits; blocking on I/O under it is its job
	defer r.saveMu.Unlock()
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("colstore: save: %w", err)
	}
	ents, err := fs.ReadDir(dir)
	if err != nil {
		return "", fmt.Errorf("colstore: save: %w", err)
	}
	next := uint64(1)
	for _, ent := range ents {
		if ent.IsDir() && strings.HasPrefix(ent.Name(), tmpPrefix) {
			// Debris of a save that crashed before installing.
			if err := fs.RemoveAll(filepath.Join(dir, ent.Name())); err != nil {
				return "", fmt.Errorf("colstore: save: clear stale %s: %w", ent.Name(), err)
			}
			continue
		}
		if n, ok := parseGenName(ent.Name()); ok && n >= next {
			next = n + 1
		}
	}
	gen := genDirName(next)
	tmp := filepath.Join(dir, tmpPrefix+gen)
	if err := fs.MkdirAll(tmp, 0o755); err != nil {
		return "", fmt.Errorf("colstore: save: %w", err)
	}
	if err := r.writeSnapshot(fs, tmp); err != nil {
		fs.RemoveAll(tmp) //grovevet:ignore droppederr best-effort cleanup; the write error is already being returned
		return "", err
	}
	// The snapshot's files are synced; sync its directory so the files'
	// names are durable, rename the whole directory into place, and sync
	// the store directory so the rename is durable. Only then repoint
	// CURRENT — a crash anywhere before that leaves CURRENT on the old,
	// complete generation.
	if err := fs.SyncDir(tmp); err != nil {
		fs.RemoveAll(tmp) //grovevet:ignore droppederr best-effort cleanup; the sync error is already being returned
		return "", fmt.Errorf("colstore: save: %w", err)
	}
	if err := fs.Rename(tmp, filepath.Join(dir, gen)); err != nil {
		fs.RemoveAll(tmp) //grovevet:ignore droppederr best-effort cleanup; the rename error is already being returned
		return "", fmt.Errorf("colstore: save: %w", err)
	}
	if err := fs.SyncDir(dir); err != nil {
		return "", fmt.Errorf("colstore: save: %w", err)
	}
	if err := installCurrent(fs, dir, gen); err != nil {
		return "", err
	}
	return gen, gcGenerations(fs, dir, r.snapshotKeep(), gen, r.gcProtectName(), r.sourceGenName())
}

// LoadGenerationFS loads one specific snapshot generation of dir, ignoring
// the CURRENT pointer. The sharded coordinator uses it to pin each shard to
// the generation its cross-shard manifest recorded — following the per-shard
// CURRENT could mix generations from different coordinated saves.
func LoadGenerationFS(fs fsio.FS, dir, gen string) (*Relation, error) {
	if _, ok := parseGenName(gen); !ok {
		return nil, fmt.Errorf("colstore: load: %q is not a generation name", gen)
	}
	r, err := loadSnapshot(fs, filepath.Join(dir, gen))
	if err != nil {
		return nil, err
	}
	r.setSourceGen(gen)
	return r, nil
}

// writeSnapshot writes one complete snapshot — data.bin then manifest.json,
// both fsynced — into dir, which must already exist. It holds the
// relation's read lock for the duration so the two files describe one
// consistent state.
func (r *Relation) writeSnapshot(fs fsio.FS, dir string) error {
	r.mu.RLock() //grovevet:ignore lockorder the read lock must span the file writes so data.bin and manifest.json describe one cut; writers stall, readers proceed
	defer r.mu.RUnlock()
	m := manifest{
		FormatVersion: formatVersion,
		NumRecords:    r.numRecords.Load(),
		PartWidth:     r.partWidth,
	}
	for _, e := range r.Edges() {
		_, hasM := r.measures[e]
		var names []string
		for _, name := range r.MeasureNames() {
			if _, ok := r.named[name][e]; ok {
				names = append(names, name)
			}
		}
		m.Edges = append(m.Edges, manifestEdge{ID: e, HasMeasure: hasM, MeasureNames: names})
	}
	for _, v := range r.Views() {
		m.Views = append(m.Views, manifestView{Name: v.Name, Edges: v.Edges})
	}
	for _, v := range r.AggViews() {
		m.AggViews = append(m.AggViews, manifestAgg{Name: v.Name, Path: v.Path, Func: v.Func, Measure: v.MeasureName})
	}
	for _, key := range r.TagKeys() {
		for _, value := range r.TagValues(key) {
			m.Tags = append(m.Tags, manifestTag{Key: key, Value: value})
		}
	}
	m.HasDeleted = r.deleted != nil && !r.deleted.IsEmpty()

	crc := crc32.New(castagnoli)
	f, err := fs.Create(filepath.Join(dir, "data.bin"))
	if err != nil {
		return fmt.Errorf("colstore: save data: %w", err)
	}
	w := bufio.NewWriterSize(io.MultiWriter(f, crc), 1<<20)
	if err := r.writeColumns(w, &m); err != nil {
		f.Close() //grovevet:ignore droppederr the column write error is already being returned
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close() //grovevet:ignore droppederr the flush error is already being returned
		return fmt.Errorf("colstore: save data: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close() //grovevet:ignore droppederr the sync error is already being returned
		return fmt.Errorf("colstore: save data: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("colstore: save data: %w", err)
	}

	m.DataChecksum = crc.Sum32()
	mb, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("colstore: save manifest: %w", err)
	}
	mf, err := fs.Create(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return fmt.Errorf("colstore: save manifest: %w", err)
	}
	if _, err := mf.Write(mb); err != nil {
		mf.Close() //grovevet:ignore droppederr the write error is already being returned
		return fmt.Errorf("colstore: save manifest: %w", err)
	}
	if err := mf.Sync(); err != nil {
		mf.Close() //grovevet:ignore droppederr the sync error is already being returned
		return fmt.Errorf("colstore: save manifest: %w", err)
	}
	if err := mf.Close(); err != nil {
		return fmt.Errorf("colstore: save manifest: %w", err)
	}
	return nil
}

// writeColumns streams every column payload to w in manifest order. The
// caller holds the relation's read lock.
func (r *Relation) writeColumns(w io.Writer, m *manifest) error {
	for _, me := range m.Edges {
		if _, err := r.bitmaps[me.ID].Bits().WriteTo(w); err != nil {
			return fmt.Errorf("colstore: save edge %d bitmap: %w", me.ID, err)
		}
		if me.HasMeasure {
			if err := writeMeasureColumn(w, r.measures[me.ID]); err != nil {
				return fmt.Errorf("colstore: save edge %d measures: %w", me.ID, err)
			}
		}
		for _, name := range me.MeasureNames {
			if err := writeMeasureColumn(w, r.named[name][me.ID]); err != nil {
				return fmt.Errorf("colstore: save edge %d measure %q: %w", me.ID, name, err)
			}
		}
	}
	for _, mv := range m.Views {
		if _, err := r.views[mv.Name].Col.Bits().WriteTo(w); err != nil {
			return fmt.Errorf("colstore: save view %q: %w", mv.Name, err)
		}
	}
	for _, ma := range m.AggViews {
		av := r.aggViews[ma.Name]
		if _, err := av.Col.Bits().WriteTo(w); err != nil {
			return fmt.Errorf("colstore: save agg view %q bitmap: %w", ma.Name, err)
		}
		if err := writeMeasureColumn(w, av.Measure); err != nil {
			return fmt.Errorf("colstore: save agg view %q measures: %w", ma.Name, err)
		}
	}
	for _, mt := range m.Tags {
		if _, err := r.tags[mt.Key][mt.Value].Bits().WriteTo(w); err != nil {
			return fmt.Errorf("colstore: save tag %s=%s: %w", mt.Key, mt.Value, err)
		}
	}
	if m.HasDeleted {
		if _, err := r.deleted.WriteTo(w); err != nil {
			return fmt.Errorf("colstore: save deleted bitmap: %w", err)
		}
	}
	return nil
}

// Load reads a relation previously written with Save. It follows the
// CURRENT pointer; when the installed generation is missing or damaged it
// falls back to the newest older generation that still loads, counting the
// recovery in PersistRecoveries.
func Load(dir string) (*Relation, error) { return LoadFS(fsio.OS(), dir) }

// LoadFS is Load against an explicit filesystem.
func LoadFS(fs fsio.FS, dir string) (*Relation, error) {
	gens := listGenerations(fs, dir)
	cur, curOK := readCurrent(fs, dir)
	if !curOK && len(gens) == 0 {
		// No generation to load. A manifest.json at the root is the
		// pre-generational layout, last written at format version 1: refuse
		// it by the version found (readManifest), or report it missing.
		m, err := readManifest(fs, dir)
		if err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("colstore: unsupported pre-generational layout (format version %d at the root of %s)", m.FormatVersion, dir)
	}
	cands := make([]string, 0, len(gens)+1)
	if curOK {
		cands = append(cands, cur)
	}
	for _, g := range gens {
		if !curOK || g != cur {
			cands = append(cands, g)
		}
	}
	var firstErr error
	for i, g := range cands {
		r, err := loadSnapshot(fs, filepath.Join(dir, g))
		if err == nil {
			if i > 0 || !curOK {
				// The generation CURRENT designated was not usable (or the
				// pointer itself was lost); an older snapshot saved the day.
				persistRecoveries.Add(1)
			}
			// Pin the generation we now lazily page value blocks from: a
			// later Save's GC must not collect it out from under the pool.
			r.setSourceGen(g)
			return r, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return nil, fmt.Errorf("colstore: no loadable generation in %s: %w", dir, firstErr)
}

// readManifest reads and validates dir's manifest.json.
func readManifest(fs fsio.FS, dir string) (*manifest, error) {
	mb, err := fsio.ReadFile(fs, filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, fmt.Errorf("colstore: load manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(mb, &m); err != nil {
		return nil, fmt.Errorf("colstore: load manifest: %w", err)
	}
	if m.FormatVersion != formatVersion {
		return nil, fmt.Errorf("colstore: unsupported format version %d", m.FormatVersion)
	}
	return &m, nil
}

// verifyChecksum streams dir's data.bin and compares it against the
// manifest checksum. A zero checksum means the store predates checksumming
// (or, vanishingly rarely, really hashes to zero); verification is skipped
// for those.
func verifyChecksum(fs fsio.FS, dir string, m *manifest) error {
	if m.DataChecksum == 0 {
		return nil
	}
	f, err := fs.Open(filepath.Join(dir, "data.bin"))
	if err != nil {
		return fmt.Errorf("colstore: load data: %w", err)
	}
	defer f.Close()
	crc := crc32.New(castagnoli)
	if _, err := io.Copy(crc, f); err != nil {
		return fmt.Errorf("colstore: load data: %w", err)
	}
	if got := crc.Sum32(); got != m.DataChecksum {
		return fmt.Errorf("colstore: data.bin checksum mismatch (got %#x, manifest says %#x)",
			got, m.DataChecksum)
	}
	return nil
}

// verifySnapshot checks that dir holds a well-formed snapshot: the manifest
// parses, the format version is supported, and data.bin matches the
// manifest checksum. Cheaper than a full load (no column decode).
func verifySnapshot(fs fsio.FS, dir string) error {
	m, err := readManifest(fs, dir)
	if err != nil {
		return err
	}
	return verifyChecksum(fs, dir, m)
}

// loadSnapshot decodes the single snapshot in dir. Integrity is verified up
// front: a flipped bit deep in a column must not surface later as a
// silently wrong answer — the full-file checksum is what lets the value
// blocks stay on disk unread until first access.
func loadSnapshot(fs fsio.FS, dir string) (*Relation, error) {
	m, err := readManifest(fs, dir)
	if err != nil {
		return nil, err
	}
	if err := verifyChecksum(fs, dir, m); err != nil {
		return nil, err
	}
	f, err := fs.Open(filepath.Join(dir, "data.bin"))
	if err != nil {
		return nil, fmt.Errorf("colstore: load data: %w", err)
	}
	defer f.Close()
	// The counting reader tracks the absolute data.bin offset so the block
	// indexes can record where each payload lives.
	rd := &countingReader{r: bufio.NewReaderSize(f, 1<<20)}

	r := NewRelation(m.PartWidth)
	r.numRecords.Store(m.NumRecords)

	src := newPageSource(fs, filepath.Join(dir, "data.bin"))
	r.pagePool = pagepool.New(DefaultPageCacheBytes)
	r.pageSrcs = append(r.pageSrcs, src)
	measureColumn := func() (*MeasureColumn, error) {
		return readPagedMeasureColumn(rd, src, r.pagePool)
	}

	for _, me := range m.Edges {
		b := bitmap.New()
		if _, err := b.ReadFrom(rd); err != nil {
			return nil, fmt.Errorf("colstore: load edge %d bitmap: %w", me.ID, err)
		}
		r.bitmaps[me.ID] = NewBitmapColumnFrom(b)
		if me.HasMeasure {
			mc, err := measureColumn()
			if err != nil {
				return nil, fmt.Errorf("colstore: load edge %d measures: %w", me.ID, err)
			}
			r.measures[me.ID] = mc
		}
		for _, name := range me.MeasureNames {
			mc, err := measureColumn()
			if err != nil {
				return nil, fmt.Errorf("colstore: load edge %d measure %q: %w", me.ID, name, err)
			}
			cols, ok := r.named[name]
			if !ok {
				cols = make(map[EdgeID]*MeasureColumn)
				r.named[name] = cols
			}
			cols[me.ID] = mc
		}
	}
	for _, mv := range m.Views {
		b := bitmap.New()
		if _, err := b.ReadFrom(rd); err != nil {
			return nil, fmt.Errorf("colstore: load view %q: %w", mv.Name, err)
		}
		r.views[mv.Name] = &GraphView{Name: mv.Name, Edges: mv.Edges, Col: NewBitmapColumnFrom(b)}
	}
	for _, ma := range m.AggViews {
		b := bitmap.New()
		if _, err := b.ReadFrom(rd); err != nil {
			return nil, fmt.Errorf("colstore: load agg view %q bitmap: %w", ma.Name, err)
		}
		mc, err := measureColumn()
		if err != nil {
			return nil, fmt.Errorf("colstore: load agg view %q measures: %w", ma.Name, err)
		}
		fn, ok := agg.ByName(ma.Func)
		if !ok {
			return nil, fmt.Errorf("colstore: load agg view %q: unknown aggregate function %q", ma.Name, ma.Func)
		}
		r.aggViews[ma.Name] = &AggregateView{
			Name: ma.Name, Path: ma.Path, Func: ma.Func, MeasureName: ma.Measure,
			Measure: mc, Col: NewBitmapColumnFrom(b), fn: fn,
		}
	}
	for _, mt := range m.Tags {
		b := bitmap.New()
		if _, err := b.ReadFrom(rd); err != nil {
			return nil, fmt.Errorf("colstore: load tag %s=%s: %w", mt.Key, mt.Value, err)
		}
		if r.tags == nil {
			r.tags = make(map[string]map[string]*BitmapColumn)
		}
		byValue, ok := r.tags[mt.Key]
		if !ok {
			byValue = make(map[string]*BitmapColumn)
			r.tags[mt.Key] = byValue
		}
		byValue[mt.Value] = NewBitmapColumnFrom(b)
	}
	if m.HasDeleted {
		b := bitmap.New()
		if _, err := b.ReadFrom(rd); err != nil {
			return nil, fmt.Errorf("colstore: load deleted bitmap: %w", err)
		}
		r.deleted = b
	}
	return r, nil
}

// DiskSizeBytes returns the on-disk footprint of the installed snapshot
// (manifest.json + data.bin of the CURRENT generation).
func DiskSizeBytes(dir string) (int64, error) {
	fs := fsio.OS()
	snap, err := snapshotDir(fs, dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, name := range []string{"manifest.json", "data.bin"} {
		fi, err := fs.Stat(filepath.Join(snap, name))
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}

// countingReader tracks the absolute offset of a sequential read stream.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// writeMeasureColumn writes a measure column in the paged format:
// presence bitmap, u32 value count, u32 block count, the block index
// (per-block u32 payload length, u8 encoding, u16 value count, u64 zone min
// bits, u64 zone max bits), then the concatenated block payloads.
//
// The writer streams the values block-at-a-time — a paged column is saved by
// decoding each block straight from its source, never materializing the
// whole column — and the per-block encoding choice is deterministic, so
// saving a loaded snapshot reproduces it byte for byte (the crash sweep's
// bit-exactness check depends on this).
func writeMeasureColumn(w io.Writer, m *MeasureColumn) error {
	if err := m.validate(); err != nil {
		return err
	}
	if _, err := m.present.WriteTo(w); err != nil {
		return err
	}
	count := m.valueCount()
	numBlocks := (count + BlockValues - 1) / BlockValues
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(count))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(numBlocks))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	var enc blockEncoder
	index := make([]byte, 0, numBlocks*blockMetaDiskSize)
	payloads := make([]byte, 0, 8*min(count, BlockValues))
	var meta [blockMetaDiskSize]byte
	var decoded []float64 // a paged column's blocks are decoded here, one at a time
	if m.isPaged() {
		decoded = make([]float64, min(count, BlockValues))
	}
	for bi := 0; bi < numBlocks; bi++ {
		vals, err := m.blockValuesInto(bi, decoded)
		if err != nil {
			return err
		}
		tag, payload, err := enc.encode(vals)
		if err != nil {
			return err
		}
		minBits, maxBits := zoneOf(vals)
		binary.LittleEndian.PutUint32(meta[0:], uint32(len(payload)))
		meta[4] = tag
		binary.LittleEndian.PutUint16(meta[5:], uint16(len(vals)))
		binary.LittleEndian.PutUint64(meta[7:], minBits)
		binary.LittleEndian.PutUint64(meta[15:], maxBits)
		index = append(index, meta[:]...)
		payloads = append(payloads, payload...)
	}
	if _, err := w.Write(index); err != nil {
		return err
	}
	_, err := w.Write(payloads)
	return err
}

// readBlockIndex reads and validates a column's value count and block
// index from rd. Every field is treated as hostile input: block counts must
// be exactly ceil(count/BlockValues), per-block value counts must tile the
// column, encoding tags and payload lengths are bounded. Offsets are NOT
// assigned here — the caller derives them from its stream position.
func readBlockIndex(rd io.Reader) (count int, metas []blockMeta, err error) {
	var hdr [8]byte
	if _, err := io.ReadFull(rd, hdr[:]); err != nil {
		return 0, nil, err
	}
	count = int(binary.LittleEndian.Uint32(hdr[:4]))
	numBlocks := int(binary.LittleEndian.Uint32(hdr[4:]))
	if want := (count + BlockValues - 1) / BlockValues; numBlocks != want {
		return 0, nil, fmt.Errorf("colstore: block index claims %d blocks for %d values (want %d)",
			numBlocks, count, want)
	}
	// Read metas one at a time so allocation tracks bytes actually read, not
	// the header's claim (a tiny corrupt file must not allocate gigabytes).
	var mb [blockMetaDiskSize]byte
	for bi := 0; bi < numBlocks; bi++ {
		if _, err := io.ReadFull(rd, mb[:]); err != nil {
			return 0, nil, err
		}
		m := blockMeta{
			encLen:  binary.LittleEndian.Uint32(mb[0:]),
			enc:     mb[4],
			count:   binary.LittleEndian.Uint16(mb[5:]),
			minBits: binary.LittleEndian.Uint64(mb[7:]),
			maxBits: binary.LittleEndian.Uint64(mb[15:]),
		}
		wantCnt := BlockValues
		if bi == numBlocks-1 {
			wantCnt = count - bi*BlockValues
		}
		if int(m.count) != wantCnt {
			return 0, nil, fmt.Errorf("colstore: block %d holds %d values, want %d", bi, m.count, wantCnt)
		}
		if m.enc >= numEncodings {
			return 0, nil, fmt.Errorf("colstore: block %d has unknown encoding %d", bi, m.enc)
		}
		if m.encLen < 1 || m.encLen > maxBlockEncLen {
			return 0, nil, fmt.Errorf("colstore: block %d payload length %d out of range", bi, m.encLen)
		}
		metas = append(metas, m)
	}
	return count, metas, nil
}

// readPagedMeasureColumn reads a column header and block index from the
// stream, skips over the payloads, and returns a lazily paged column whose
// blocks fault in from src through pool.
func readPagedMeasureColumn(cr *countingReader, src *pageSource, pool *pagepool.Pool) (*MeasureColumn, error) {
	m := NewMeasureColumn()
	if _, err := m.present.ReadFrom(cr); err != nil {
		return nil, err
	}
	count, metas, err := readBlockIndex(cr)
	if err != nil {
		return nil, err
	}
	if count != m.present.Cardinality() {
		return nil, fmt.Errorf("colstore: measure count %d does not match presence %d",
			count, m.present.Cardinality())
	}
	var total int64
	base := cr.n
	for i := range metas {
		metas[i].off = base + total
		total += int64(metas[i].encLen)
	}
	if _, err := io.CopyN(io.Discard, cr, total); err != nil {
		return nil, fmt.Errorf("colstore: skip %d payload bytes: %w", total, err)
	}
	if count == 0 {
		return m, nil
	}
	m.paged = &pagedData{
		count: count,
		metas: metas,
		src:   src,
		token: pageTokens.Add(1),
		pool:  pool,
	}
	return m, m.validate()
}

// readMeasureColumn eagerly decodes a measure column from rd into a
// resident column: the round-trip complement of writeMeasureColumn for
// contexts without a seekable source (fuzzers, tools).
func readMeasureColumn(rd io.Reader) (*MeasureColumn, error) {
	m := NewMeasureColumn()
	if _, err := m.present.ReadFrom(rd); err != nil {
		return nil, err
	}
	count, metas, err := readBlockIndex(rd)
	if err != nil {
		return nil, err
	}
	if count != m.present.Cardinality() {
		return nil, fmt.Errorf("colstore: measure count %d does not match presence %d",
			count, m.present.Cardinality())
	}
	m.values = make([]float64, 0, min(count, BlockValues))
	payload := make([]byte, 0, maxBlockEncLen)
	var block [BlockValues]float64
	for bi, meta := range metas {
		payload = payload[:meta.encLen]
		if _, err := io.ReadFull(rd, payload); err != nil {
			return nil, err
		}
		dst := block[:meta.count]
		if err := decodeBlock(meta.enc, payload, dst); err != nil {
			return nil, fmt.Errorf("colstore: block %d: %w", bi, err)
		}
		m.values = append(m.values, dst...)
	}
	return m, m.validate()
}
