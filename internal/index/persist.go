package index

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"

	"autovalidate/internal/frame"
	"autovalidate/internal/pattern"
)

// An index file and a delta file are one internal/frame artifact: magic
// "AVIDX3\n", a gob headerV3, then checksummed sections each holding a
// gob shardFileV2 — the map flattened into parallel slices in key order,
// which gob encodes far more compactly than a map of structs (the
// paper's point that a terabyte corpus distills to an index under a
// gigabyte depends on a dense encoding) and which makes the bytes a
// function of the evidence alone. The writer emits one section. The
// reader folds any number into the one map, because files written while
// the index was hash-partitioned carry one section per partition
// (NumShards in the header). An index records its Generation; a delta
// (Delta flag set) also records the base generation it extends, so a
// base and a chain of deltas compact deterministically. The older v1
// (bare gob) and v2 ("AVIDX2\n") layouts are no longer read: an index is
// a pure function of its corpus, so the way forward is a rebuild.

const magicV3 = "AVIDX3\n"

// headerV3 and shardFileV2 keep their historical names, and headerV3
// its NumShards field (the section count), because gob writes type and
// field names into the stream: renaming any of them would change the
// bytes of every file and shipped delta.
type headerV3 struct {
	NumShards   int
	Enum        pattern.EnumOptions
	Columns     int
	SkippedWide int
	// Generation is the index's ingest-batch counter (0 for a fresh
	// build; for a delta file, the generation of the delta's own
	// evidence index, normally 0).
	Generation uint64
	// Delta marks a delta file; BaseGeneration is then the generation
	// of the base index the delta was built against.
	Delta          bool
	BaseGeneration uint64
}

// shardFileV2 is one payload section.
type shardFileV2 struct {
	Keys   []string
	SumImp []float64
	Cov    []uint32
	Tokens []uint16
}

// Save writes the index to path atomically and durably
// (frame.SaveAtomic), recording the generation counter alongside the
// evidence.
func (idx *Index) Save(path string) error {
	return save(path, idx.Encode)
}

// SaveDelta writes a delta to path with the delta flag set, so a delta
// file can never be mistaken for a full index: Load rejects it and
// points at LoadDelta.
func SaveDelta(path string, d *Delta) error {
	return save(path, func(w io.Writer) error { return EncodeDelta(w, d) })
}

func save(path string, encode func(io.Writer) error) error {
	if err := frame.SaveAtomic(path, encode); err != nil {
		return fmt.Errorf("index: %w", err)
	}
	return nil
}

// Encode writes the index to an arbitrary writer — the same bytes Save
// puts in a file, reusable as a network payload (the cluster's snapshot
// shipping streams it over HTTP).
func (idx *Index) Encode(w io.Writer) error {
	return encode(w, headerV3{
		Enum:        idx.Enum,
		Columns:     idx.Columns,
		SkippedWide: idx.SkippedWide,
		Generation:  idx.Generation,
	}, idx.entries)
}

// EncodeDelta writes a delta to an arbitrary writer — the same bytes
// SaveDelta puts in a file, and the replication-log payload of the
// cluster's delta shipping.
func EncodeDelta(w io.Writer, d *Delta) error {
	if d == nil || d.Evidence == nil {
		return fmt.Errorf("index: cannot encode nil delta")
	}
	ev := d.Evidence
	return encode(w, headerV3{
		Enum:           ev.Enum,
		Columns:        ev.Columns,
		SkippedWide:    ev.SkippedWide,
		Generation:     ev.Generation,
		Delta:          true,
		BaseGeneration: d.Base,
	}, ev.entries)
}

// encode frames the header and the entries, in key order, as one
// section.
func encode(w io.Writer, head headerV3, entries map[string]Entry) error {
	head.NumShards = 1
	var headBuf bytes.Buffer
	if err := gob.NewEncoder(&headBuf).Encode(head); err != nil {
		return fmt.Errorf("index: encoding header: %w", err)
	}
	sf := shardFileV2{
		Keys:   slices.Sorted(maps.Keys(entries)),
		SumImp: make([]float64, 0, len(entries)),
		Cov:    make([]uint32, 0, len(entries)),
		Tokens: make([]uint16, 0, len(entries)),
	}
	for _, k := range sf.Keys {
		e := entries[k]
		sf.SumImp = append(sf.SumImp, e.SumImp)
		sf.Cov = append(sf.Cov, e.Cov)
		sf.Tokens = append(sf.Tokens, e.Tokens)
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&sf); err != nil {
		return fmt.Errorf("index: encoding entries: %w", err)
	}
	if err := frame.Write(w, magicV3, headBuf.Bytes(), payload.Bytes()); err != nil {
		return fmt.Errorf("index: encoding: %w", err)
	}
	return nil
}

// Load reads an index previously written by Save. A delta file is
// rejected with a pointer at LoadDelta, a v1 or v2 file with a pointer
// at a rebuild.
func Load(path string) (*Index, error) {
	return loadFile(path, Decode)
}

// LoadDelta reads a delta previously written by SaveDelta.
func LoadDelta(path string) (*Delta, error) {
	return loadFile(path, DecodeDelta)
}

// loadFile decodes path with the file's size as the section bound, so a
// corrupt length prefix cannot drive a gigabyte allocation.
func loadFile[T any](path string, decode func(io.Reader, int64) (T, error)) (T, error) {
	var zero T
	f, err := os.Open(path)
	if err != nil {
		return zero, fmt.Errorf("index: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return zero, fmt.Errorf("index: %w", err)
	}
	v, err := decode(f, fi.Size())
	if err != nil {
		return zero, fmt.Errorf("index: loading %s: %w", path, err)
	}
	return v, nil
}

// Decode reads an index from a stream of bytes written by Encode.
// maxSize bounds section allocations the way the file size bounds them
// in Load; pass the framed payload length when the stream arrives over
// the network.
func Decode(r io.Reader, maxSize int64) (*Index, error) {
	idx, head, err := decode(r, maxSize)
	if err != nil {
		return nil, err
	}
	if head.Delta {
		return nil, fmt.Errorf("index: this is a delta file (base generation %d); load it with LoadDelta",
			head.BaseGeneration)
	}
	return idx, nil
}

// DecodeDelta reads a delta from a stream of bytes written by
// EncodeDelta; maxSize bounds section allocations (see Decode).
func DecodeDelta(r io.Reader, maxSize int64) (*Delta, error) {
	ev, head, err := decode(r, maxSize)
	if err != nil {
		return nil, err
	}
	if !head.Delta {
		return nil, fmt.Errorf("index: this is a full index, not a delta; load it with Load")
	}
	return &Delta{Evidence: ev, Base: head.BaseGeneration}, nil
}

// checkLengths validates that the parallel evidence slices agree with the
// key slice, the invariant a truncated or bit-flipped file breaks.
func checkLengths(sf *shardFileV2) error {
	n := len(sf.Keys)
	if len(sf.SumImp) != n || len(sf.Cov) != n || len(sf.Tokens) != n {
		return fmt.Errorf("%d keys but %d/%d/%d evidence values", n, len(sf.SumImp), len(sf.Cov), len(sf.Tokens))
	}
	return nil
}

// decode reads the header and its NumShards sections, folding them into
// one map. A key written twice is corruption: no writer ever wrote one
// key twice, in one section or in two.
func decode(r io.Reader, maxSize int64) (*Index, headerV3, error) {
	var head headerV3
	fail := func(err error) (*Index, headerV3, error) {
		return nil, head, fmt.Errorf("index: file is corrupt: %w", err)
	}
	fr, err := frame.ReadMagic(bufio.NewReader(r), magicV3)
	if err != nil {
		return nil, head, fmt.Errorf("index: not an AVIDX3 file — unsupported legacy index format, "+
			"rebuild with `av index` (av index -corpus DIR -out FILE): %w", err)
	}
	headBuf, err := fr.ReadHeader(maxSize)
	if err != nil {
		return fail(err)
	}
	if err := gob.NewDecoder(bytes.NewReader(headBuf)).Decode(&head); err != nil {
		return fail(fmt.Errorf("undecodable header: %w", err))
	}
	if head.NumShards < 1 || head.NumShards > 1<<16 {
		return fail(fmt.Errorf("implausible section count %d", head.NumShards))
	}
	var entries map[string]Entry
	for s := range head.NumShards {
		payload, err := fr.ReadSection(maxSize)
		if err != nil {
			return fail(err)
		}
		var sf shardFileV2
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&sf); err != nil {
			return fail(fmt.Errorf("undecodable section %d: %w", s, err))
		}
		if err := checkLengths(&sf); err != nil {
			return fail(fmt.Errorf("section %d: %w", s, err))
		}
		if entries == nil {
			entries = make(map[string]Entry, len(sf.Keys))
		}
		want := len(entries) + len(sf.Keys)
		for i, k := range sf.Keys {
			entries[k] = Entry{SumImp: sf.SumImp[i], Cov: sf.Cov[i], Tokens: sf.Tokens[i]}
		}
		if len(entries) != want {
			return fail(fmt.Errorf("section %d repeats %d key(s)", s, want-len(entries)))
		}
	}
	if err := fr.ReadEOF(); err != nil {
		return fail(err)
	}
	return &Index{
		entries:     entries,
		Enum:        head.Enum,
		Columns:     head.Columns,
		SkippedWide: head.SkippedWide,
		Generation:  head.Generation,
	}, head, nil
}
