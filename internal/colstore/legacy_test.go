package colstore

import (
	"path/filepath"
	"testing"
)

// legacyBlocksDir holds a store saved while the writer still chose a block
// encoding per block (raw, xor, dict or rle): the only source of non-raw
// blocks now that Save writes every block raw.
var legacyBlocksDir = filepath.Join("..", "..", "testdata", "legacy-blocks")

// legacyBlock is one value block of the legacy snapshot, as stored.
type legacyBlock struct {
	enc     uint8
	count   int
	payload []byte
}

// legacyBlocks reads every value block of the legacy snapshot in manifest
// order, failing unless each encoding tag occurs among them.
func legacyBlocks(tb testing.TB) []legacyBlock {
	tb.Helper()
	r, err := Load(legacyBlocksDir)
	if err != nil {
		tb.Fatal(err)
	}
	defer r.Close()
	var out []legacyBlock
	var seen [numEncodings]bool
	add := func(c *MeasureColumn) {
		if c == nil || c.paged == nil {
			return
		}
		for _, m := range c.paged.metas {
			payload := make([]byte, m.encLen)
			if err := c.paged.src.readAt(payload, m.off); err != nil {
				tb.Fatal(err)
			}
			out = append(out, legacyBlock{m.enc, int(m.count), payload})
			seen[m.enc] = true
		}
	}
	for _, e := range r.Edges() {
		add(r.MeasureColumn(e))
		for _, name := range r.MeasureNames() {
			add(r.MeasureColumnNamed(e, name))
		}
	}
	for enc, ok := range seen {
		if !ok {
			tb.Fatalf("the legacy snapshot holds no block with encoding tag %d", enc)
		}
	}
	return out
}
