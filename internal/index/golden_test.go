package index

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"autovalidate/internal/corpus"
	"autovalidate/internal/frame/frametest"
)

// The files under testdata/ were written by the last commit that still
// carried its own framing code (and the v1/v2 writers); they pin the
// AVIDX3 bytes this package must keep reading and the legacy bytes it
// must keep refusing. The two AVIDX3 goldens carry two hash-partitioned
// sections each, so they also pin the multi-section reader.

// goldenIndex rebuilds the index and delta the golden files were saved
// from. Build is deterministic in its evidence, so a loaded golden must
// equal these entry for entry.
func goldenIndex() (*Index, *Delta) {
	cols := []*corpus.Column{
		corpus.NewColumn("t1", "id", []string{"a-01", "b-22", "c-33"}),
		corpus.NewColumn("t1", "ts", []string{"2024-01-02", "2024-02-03"}),
		corpus.NewColumn("t2", "code", []string{"XX", "YY", "ZZ"}),
	}
	opt := DefaultBuildOptions()
	idx := Build(cols[:2], opt)
	return idx, BuildDelta(idx, cols[2:], opt)
}

func TestGoldenV3(t *testing.T) {
	idx, delta := goldenIndex()
	got, err := Load(filepath.Join("testdata", "golden_v3.idx"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Generation != 0 {
		t.Errorf("golden index at generation %d, want 0", got.Generation)
	}
	sameEntries(t, idx, got)

	d, err := LoadDelta(filepath.Join("testdata", "golden_delta.avd"))
	if err != nil {
		t.Fatal(err)
	}
	if d.Base != delta.Base {
		t.Errorf("golden delta base %d, want %d", d.Base, delta.Base)
	}
	sameEntries(t, delta.Evidence, d.Evidence)
}

// TestLegacyFormatsRejected: v1 (bare gob) and v2 (AVIDX2) files are no
// longer read; both loaders must say so and name the way out, never
// hand the bytes to a decoder.
func TestLegacyFormatsRejected(t *testing.T) {
	for _, name := range []string{"legacy_v1.idx", "legacy_v2.idx"} {
		path := filepath.Join("testdata", name)
		_, err := Load(path)
		if err == nil || !strings.Contains(err.Error(), "unsupported legacy index format, rebuild with `avindex build`") {
			t.Errorf("Load(%s) = %v, want the rebuild message", name, err)
		}
		if _, err := LoadDelta(path); err == nil {
			t.Errorf("LoadDelta(%s) accepted a legacy index", name)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Decode(bytes.NewReader(data), int64(len(data))); err == nil ||
			!strings.Contains(err.Error(), "unsupported legacy index format") {
			t.Errorf("Decode(%s) = %v, want the rebuild message", name, err)
		}
	}
}

// equalEvidence reports whether a and b hold the same entries.
func equalEvidence(a, b *Index) bool {
	if a.Size() != b.Size() {
		return false
	}
	for k, ea := range a.All() {
		if eb, ok := b.Lookup(k); !ok || ea != eb {
			return false
		}
	}
	return true
}

// TestCorruptionTable runs the golden index and delta through the
// shared corruption table. Every truncation and every flipped byte is
// an error — or, for a flip inside the gob header, which AVIDX3 does
// not checksum, at worst different metadata around the same evidence:
// never other entries, never a panic.
func TestCorruptionTable(t *testing.T) {
	idx, delta := goldenIndex()
	file, err := os.ReadFile(filepath.Join("testdata", "golden_v3.idx"))
	if err != nil {
		t.Fatal(err)
	}
	frametest.Corrupt(t, file, func(damage string, bad []byte) {
		got, err := Decode(bytes.NewReader(bad), int64(len(bad)))
		if err == nil && (len(bad) < len(file) || !equalEvidence(got, idx)) {
			t.Errorf("index %s: loaded as a different index", damage)
		}
		if _, err := DecodeDelta(bytes.NewReader(bad), int64(len(bad))); err == nil && len(bad) < len(file) {
			t.Errorf("index %s: loaded as a delta", damage)
		}
	})
	file, err = os.ReadFile(filepath.Join("testdata", "golden_delta.avd"))
	if err != nil {
		t.Fatal(err)
	}
	frametest.Corrupt(t, file, func(damage string, bad []byte) {
		got, err := DecodeDelta(bytes.NewReader(bad), int64(len(bad)))
		if err == nil && (len(bad) < len(file) || !equalEvidence(got.Evidence, delta.Evidence)) {
			t.Errorf("delta %s: loaded as a different delta", damage)
		}
	})
}
