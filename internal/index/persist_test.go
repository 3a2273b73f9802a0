package index

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"os"
	"path/filepath"
	"testing"

	"autovalidate/internal/datagen"
	"autovalidate/internal/frame"
)

// buildFixture builds a realistic index with the given shard count.
func buildFixture(t *testing.T, shards int) *Index {
	t.Helper()
	c := datagen.Generate(datagen.Enterprise(20, 7))
	opt := DefaultBuildOptions()
	opt.Shards = shards
	idx := Build(c.Columns(), opt)
	if idx.Size() == 0 {
		t.Fatal("empty fixture index")
	}
	return idx
}

// sameEntries asserts a and b index the identical evidence.
func sameEntries(t *testing.T, a, b *Index) {
	t.Helper()
	if a.Size() != b.Size() {
		t.Fatalf("sizes differ: %d vs %d", a.Size(), b.Size())
	}
	for k, ea := range a.All() {
		eb, ok := b.Lookup(k)
		if !ok || ea != eb {
			t.Fatalf("entry %q: %+v vs %+v (ok=%v)", k, ea, eb, ok)
		}
	}
	if a.Columns != b.Columns || a.SkippedWide != b.SkippedWide ||
		a.Enum.MaxTokens != b.Enum.MaxTokens {
		t.Fatalf("metadata differs: %s vs %s", a, b)
	}
}

// TestV3RoundTripPreservesGeneration checks the current format records
// the ingest-batch counter: an index that has absorbed deltas reloads at
// the same generation, so later deltas still chain onto it.
func TestV3RoundTripPreservesGeneration(t *testing.T) {
	c := datagen.Generate(datagen.Enterprise(12, 7))
	cols := c.Columns()
	idx := Build(cols[:len(cols)/2], DefaultBuildOptions())
	if _, err := idx.IngestColumns(cols[len(cols)/2:], DefaultBuildOptions()); err != nil {
		t.Fatal(err)
	}
	if idx.Generation != 1 {
		t.Fatalf("fixture generation %d, want 1", idx.Generation)
	}
	path := filepath.Join(t.TempDir(), "gen.idx")
	if err := idx.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Generation != 1 {
		t.Errorf("reloaded generation %d, want 1", got.Generation)
	}
	sameEntries(t, idx, got)
}

// TestDeltaFileConfusion verifies the two v3 file species cannot be
// mistaken for each other: Load rejects a delta file and LoadDelta
// rejects a full index, both with errors, never a silent misread.
func TestDeltaFileConfusion(t *testing.T) {
	idx := buildFixture(t, 4)
	c := datagen.Generate(datagen.Enterprise(4, 9))
	d := BuildDelta(idx, c.Columns(), DefaultBuildOptions())

	dir := t.TempDir()
	deltaPath := filepath.Join(dir, "d.avd")
	idxPath := filepath.Join(dir, "full.idx")
	if err := SaveDelta(deltaPath, d); err != nil {
		t.Fatal(err)
	}
	if err := idx.Save(idxPath); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(deltaPath); err == nil {
		t.Error("Load on a delta file should error")
	}
	if _, err := LoadDelta(idxPath); err == nil {
		t.Error("LoadDelta on a full index should error")
	}
	if _, err := LoadDelta(filepath.Join(dir, "missing.avd")); err == nil {
		t.Error("LoadDelta on a missing file should error")
	}

	got, err := LoadDelta(deltaPath)
	if err != nil {
		t.Fatal(err)
	}
	if got.Base != d.Base {
		t.Errorf("reloaded delta base %d, want %d", got.Base, d.Base)
	}
	sameEntries(t, d.Evidence, got.Evidence)
}

// TestV2RoundTripAcrossShardCounts saves with one shard count and loads
// into whatever the file says, then merges into an empty index of a
// different count (the rehash ApplyDelta and Merge do for a mismatched
// layout) — evidence and lookups must be identical throughout,
// including the single-shard (flat) and larger-than-corpus extremes.
func TestV2RoundTripAcrossShardCounts(t *testing.T) {
	dir := t.TempDir()
	for _, saveShards := range []int{1, 3, 8, 64} {
		idx := buildFixture(t, saveShards)
		path := filepath.Join(dir, "idx")
		if err := idx.Save(path); err != nil {
			t.Fatalf("shards=%d: save: %v", saveShards, err)
		}
		got, err := Load(path)
		if err != nil {
			t.Fatalf("shards=%d: load: %v", saveShards, err)
		}
		if got.NumShards() != saveShards {
			t.Errorf("loaded %d shards, file written with %d", got.NumShards(), saveShards)
		}
		sameEntries(t, idx, got)
		for _, reshards := range []int{1, 5, 32} {
			into := New(reshards)
			into.Enum = got.Enum
			re, err := Merge(into, got)
			if err != nil {
				t.Fatal(err)
			}
			if re.NumShards() != reshards {
				t.Fatalf("merge into %d shards left %d", reshards, re.NumShards())
			}
			sameEntries(t, idx, re)
		}
	}
}

// TestBuildEmptyColumnSet checks the degenerate build: no columns still
// yields a working, saveable, loadable index.
func TestBuildEmptyColumnSet(t *testing.T) {
	idx := Build(nil, DefaultBuildOptions())
	if idx.Size() != 0 || idx.Columns != 0 || idx.SkippedWide != 0 {
		t.Fatalf("empty build produced %s", idx)
	}
	if _, ok := idx.Lookup("<digit>+"); ok {
		t.Error("lookup in empty index should miss")
	}
	path := filepath.Join(t.TempDir(), "empty.idx")
	if err := idx.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Size() != 0 {
		t.Errorf("reloaded empty index has %d entries", got.Size())
	}
}

// TestLoadTruncatedSharded truncates a valid sharded (v3) file at every
// interesting boundary; each prefix must produce an error, never a panic.
func TestLoadTruncatedSharded(t *testing.T) {
	idx := buildFixture(t, 4)
	path := filepath.Join(t.TempDir(), "full.idx")
	if err := idx.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cuts := []int{0, 3, len(magicV3), len(magicV3) + 2, len(magicV3) + 20,
		len(data) / 2, len(data) - 1}
	for _, cut := range cuts {
		if cut >= len(data) {
			continue
		}
		p := filepath.Join(t.TempDir(), "trunc.idx")
		if err := os.WriteFile(p, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(p); err == nil {
			t.Errorf("loading %d/%d-byte prefix should error", cut, len(data))
		}
	}
}

// TestLoadCorruptChecksum flips one payload byte; the per-shard CRC
// must reject the file.
func TestLoadCorruptChecksum(t *testing.T) {
	idx := buildFixture(t, 4)
	path := filepath.Join(t.TempDir(), "crc.idx")
	if err := idx.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-10] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Error("flipped payload byte should fail the checksum")
	}
}

// TestLoadCorruptMismatchedSlices frames a shard whose evidence slices
// are shorter than its key slice — intact checksums, inconsistent
// payload, the case that once panicked with index-out-of-range — and
// requires a clean error.
func TestLoadCorruptMismatchedSlices(t *testing.T) {
	var head, shard bytes.Buffer
	if err := gob.NewEncoder(&head).Encode(headerV3{NumShards: 1, Columns: 3}); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(&shard).Encode(shardFileV2{
		Keys:   []string{"<digit>+", "<letter>{2}", "<alnum>+"},
		SumImp: []float64{0.5}, // truncated
		Cov:    []uint32{1, 2, 3},
		Tokens: []uint16{1, 1, 1},
	}); err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	if err := frame.Write(&file, magicV3, head.Bytes(), shard.Bytes()); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(&file, int64(file.Len())); err == nil {
		t.Fatal("mismatched evidence slices must return an error, not panic")
	}
}

// TestLoadOversizedLengthPrefix patches length prefixes to values far
// larger than the file; the loader must reject them by comparing against
// the real file size instead of allocating gigabytes.
func TestLoadOversizedLengthPrefix(t *testing.T) {
	idx := buildFixture(t, 4)
	path := filepath.Join(t.TempDir(), "len.idx")
	if err := idx.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	headLen := binary.LittleEndian.Uint32(data[len(magicV3):])

	patch := func(name string, offset int) {
		bad := append([]byte{}, data...)
		binary.LittleEndian.PutUint32(bad[offset:], 0x7fffff00)
		p := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(p, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(p); err == nil {
			t.Errorf("%s: oversized length prefix at %d should error", name, offset)
		}
	}
	patch("header.idx", len(magicV3))               // header length
	patch("shard.idx", len(magicV3)+4+int(headLen)) // first shard length
}

// TestSaveIsAtomic checks that saving over an existing index goes
// through a temp file: repeated overwrites stay loadable and no temp
// siblings are left behind.
func TestSaveIsAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "atomic.idx")
	idx := buildFixture(t, 4)
	for i := 0; i < 2; i++ {
		if err := idx.Save(path); err != nil {
			t.Fatal(err)
		}
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	sameEntries(t, idx, got)
	// A save into an unwritable location must leave the good file as-is.
	if err := idx.Save(filepath.Join(dir, "no-such-dir", "x.idx")); err == nil {
		t.Error("save into a missing directory should error")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "atomic.idx" {
			t.Errorf("leftover file %q after saves", e.Name())
		}
	}
	if _, err := Load(path); err != nil {
		t.Errorf("original index damaged by failed save: %v", err)
	}
}

// TestLoadGarbage checks that a file that is no index at all errors out.
func TestLoadGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "garbage.idx")
	if err := os.WriteFile(path, []byte("this is not an index at all, not even close"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Error("garbage file should error")
	}
}
