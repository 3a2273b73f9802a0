package index

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"autovalidate/internal/datagen"
	"autovalidate/internal/frame"
)

// buildFixture builds a realistic index.
func buildFixture(t *testing.T) *Index {
	t.Helper()
	c := datagen.Generate(datagen.Enterprise(20, 7))
	idx := Build(c.Columns(), DefaultBuildOptions())
	if idx.Size() == 0 {
		t.Fatal("empty fixture index")
	}
	return idx
}

// fnvSections splits idx's entries into n sections by FNV-1a of the key
// modulo n, the partition of files written while the index was sharded.
func fnvSections(idx *Index, n int) []map[string]Entry {
	sections := make([]map[string]Entry, n)
	for s := range sections {
		sections[s] = map[string]Entry{}
	}
	for k, e := range idx.All() {
		h := fnv.New32a()
		h.Write([]byte(k))
		sections[h.Sum32()%uint32(n)][k] = e
	}
	return sections
}

// writeSections frames head and one gob shardFileV2 per section, with
// NumShards set to the section count — the multi-section AVIDX3 layout.
func writeSections(t *testing.T, head headerV3, sections ...map[string]Entry) []byte {
	t.Helper()
	head.NumShards = len(sections)
	var headBuf bytes.Buffer
	if err := gob.NewEncoder(&headBuf).Encode(head); err != nil {
		t.Fatal(err)
	}
	payloads := make([][]byte, len(sections))
	for s, sec := range sections {
		var sf shardFileV2
		for k, e := range sec {
			sf.Keys = append(sf.Keys, k)
			sf.SumImp = append(sf.SumImp, e.SumImp)
			sf.Cov = append(sf.Cov, e.Cov)
			sf.Tokens = append(sf.Tokens, e.Tokens)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&sf); err != nil {
			t.Fatal(err)
		}
		payloads[s] = buf.Bytes()
	}
	var file bytes.Buffer
	if err := frame.Write(&file, magicV3, headBuf.Bytes(), payloads...); err != nil {
		t.Fatal(err)
	}
	return file.Bytes()
}

// indexHeader is the header Encode writes for idx.
func indexHeader(idx *Index) headerV3 {
	return headerV3{Enum: idx.Enum, Columns: idx.Columns, SkippedWide: idx.SkippedWide, Generation: idx.Generation}
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
	idx := buildFixture(t)
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

// TestV2RoundTripAcrossShardCounts reads files written with 1, 3, 8 and
// 64 hash-partitioned sections — the layouts the sharded writer left on
// disk — and the current one-section Save: evidence and lookups must be
// identical throughout, and merging a loaded index into an empty one
// must keep them so.
func TestV2RoundTripAcrossShardCounts(t *testing.T) {
	idx := buildFixture(t)
	for _, n := range []int{1, 3, 8, 64} {
		file := writeSections(t, indexHeader(idx), fnvSections(idx, n)...)
		got, err := Decode(bytes.NewReader(file), int64(len(file)))
		if err != nil {
			t.Fatalf("%d sections: %v", n, err)
		}
		sameEntries(t, idx, got)
	}

	path := filepath.Join(t.TempDir(), "idx")
	if err := idx.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	sameEntries(t, idx, got)
	into := New()
	into.Enum = got.Enum
	merged, err := Merge(into, got)
	if err != nil {
		t.Fatal(err)
	}
	sameEntries(t, idx, merged)
}

// TestDecodeRejectsKeyInTwoSections: no writer ever put one key in two
// sections, so a file that does is corrupt, not evidence to sum.
func TestDecodeRejectsKeyInTwoSections(t *testing.T) {
	idx := buildFixture(t)
	sections := fnvSections(idx, 8)
	for k, e := range sections[0] {
		sections[5][k] = e
		break
	}
	file := writeSections(t, indexHeader(idx), sections...)
	if _, err := Decode(bytes.NewReader(file), int64(len(file))); err == nil ||
		!strings.Contains(err.Error(), "repeats 1 key(s)") {
		t.Fatalf("Decode of a key in two sections = %v, want a corruption error", err)
	}
}

// TestEncodeDeterministic: the bytes of an index or delta are a
// function of its evidence — equal on a second encode and after a
// decode, whatever order the map iterates in.
func TestEncodeDeterministic(t *testing.T) {
	idx := buildFixture(t)
	c := datagen.Generate(datagen.Enterprise(6, 9))
	d := BuildDelta(idx, c.Columns(), DefaultBuildOptions())

	encode := func(write func(io.Writer) error) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	encodeDelta := func(d *Delta) func(io.Writer) error {
		return func(w io.Writer) error { return EncodeDelta(w, d) }
	}

	first := encode(idx.Encode)
	if !bytes.Equal(first, encode(idx.Encode)) {
		t.Error("two encodes of one index differ")
	}
	back, err := Decode(bytes.NewReader(first), int64(len(first)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, encode(back.Encode)) {
		t.Error("Encode(Decode(Encode(x))) differs from Encode(x)")
	}

	firstDelta := encode(encodeDelta(d))
	if !bytes.Equal(firstDelta, encode(encodeDelta(d))) {
		t.Error("two encodes of one delta differ")
	}
	backDelta, err := DecodeDelta(bytes.NewReader(firstDelta), int64(len(firstDelta)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(firstDelta, encode(encodeDelta(backDelta))) {
		t.Error("EncodeDelta(DecodeDelta(EncodeDelta(d))) differs from EncodeDelta(d)")
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

// TestLoadTruncatedSharded truncates a valid v3 file at every
// interesting boundary; each prefix must produce an error, never a panic.
func TestLoadTruncatedSharded(t *testing.T) {
	idx := buildFixture(t)
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

// TestLoadCorruptChecksum flips one payload byte; the per-section CRC
// must reject the file.
func TestLoadCorruptChecksum(t *testing.T) {
	idx := buildFixture(t)
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

// TestLoadCorruptMismatchedSlices frames a section whose evidence slices
// are shorter than its key slice — intact checksums, inconsistent
// payload, the case that once panicked with index-out-of-range — and
// requires a clean error.
func TestLoadCorruptMismatchedSlices(t *testing.T) {
	var head, section bytes.Buffer
	if err := gob.NewEncoder(&head).Encode(headerV3{NumShards: 1, Columns: 3}); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(&section).Encode(shardFileV2{
		Keys:   []string{"<digit>+", "<letter>{2}", "<alnum>+"},
		SumImp: []float64{0.5}, // truncated
		Cov:    []uint32{1, 2, 3},
		Tokens: []uint16{1, 1, 1},
	}); err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	if err := frame.Write(&file, magicV3, head.Bytes(), section.Bytes()); err != nil {
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
	idx := buildFixture(t)
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
	patch("header.idx", len(magicV3))                 // header length
	patch("section.idx", len(magicV3)+4+int(headLen)) // first section length
}

// TestSaveIsAtomic checks that saving over an existing index goes
// through a temp file: repeated overwrites stay loadable and no temp
// siblings are left behind.
func TestSaveIsAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "atomic.idx")
	idx := buildFixture(t)
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
