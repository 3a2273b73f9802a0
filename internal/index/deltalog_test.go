package index

import (
	"bytes"
	"testing"

	"autovalidate/internal/corpus"
)

// logDelta fabricates a minimal delta at the given base generation.
func logDelta(t *testing.T, base uint64) *Delta {
	t.Helper()
	ev := New()
	ev.entries["k"] = Entry{SumImp: 0.5, Cov: 1}
	ev.Columns = 1
	return &Delta{Evidence: ev, Base: base}
}

func TestDeltaLogSince(t *testing.T) {
	l := NewDeltaLog(3)
	if _, ok := l.Since(0); !ok {
		t.Fatal("empty log should report ok (caller gates on generation)")
	}
	for base := uint64(0); base < 5; base++ {
		if err := l.Append(logDelta(t, base)); err != nil {
			t.Fatalf("append base %d: %v", base, err)
		}
	}
	// Retention 3 keeps bases 2, 3, 4.
	oldest, newest, ok := l.Bounds()
	if !ok || oldest != 2 || newest != 4 {
		t.Fatalf("bounds = (%d, %d, %v), want (2, 4, true)", oldest, newest, ok)
	}
	if _, ok := l.Since(1); ok {
		t.Fatal("follower at generation 1 is behind the window; want ok=false")
	}
	for from, want := range map[uint64]int{2: 3, 3: 2, 4: 1, 5: 0} {
		got, ok := l.Since(from)
		if !ok || len(got) != want {
			t.Fatalf("Since(%d) = %d deltas, ok=%v; want %d, true", from, len(got), ok, want)
		}
		for i, d := range got {
			if d.Base != from+uint64(i) {
				t.Fatalf("Since(%d)[%d].Base = %d, want %d", from, i, d.Base, from+uint64(i))
			}
		}
	}
}

func TestDeltaLogGapResets(t *testing.T) {
	l := NewDeltaLog(8)
	if err := l.Append(logDelta(t, 0)); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(logDelta(t, 2)); err == nil {
		t.Fatal("gap append should error")
	}
	// After the reset the log holds only the new delta, so a follower
	// needing base 0 is told to re-snapshot rather than fed a gap.
	if _, ok := l.Since(0); ok {
		t.Fatal("Since(0) across a reset gap should report ok=false")
	}
	if got, ok := l.Since(2); !ok || len(got) != 1 {
		t.Fatalf("Since(2) = %d, ok=%v; want 1, true", len(got), ok)
	}
	if err := l.Append(logDelta(t, 3)); err != nil {
		t.Fatalf("chain should continue from the reset delta: %v", err)
	}
	if err := l.Append(nil); err == nil {
		t.Fatal("nil append should error")
	}
}

// TestDeltaEncodeDecodeStream round-trips a real delta through the
// streaming encoder — the replication-log wire payload.
func TestDeltaEncodeDecodeStream(t *testing.T) {
	base := Build(testColumns("alpha", 6), DefaultBuildOptions())
	cols := testColumns("beta", 3)
	d := BuildDelta(base, cols, BuildOptions{})

	var buf bytes.Buffer
	if err := EncodeDelta(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeDelta(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Base != d.Base {
		t.Fatalf("base = %d, want %d", got.Base, d.Base)
	}
	if got.Evidence.Size() != d.Evidence.Size() || got.Evidence.Columns != d.Evidence.Columns {
		t.Fatalf("evidence = %v, want %v", got.Evidence, d.Evidence)
	}
	// A full index decoded as a delta must be rejected, and vice versa.
	var full bytes.Buffer
	if err := base.Encode(&full); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeDelta(bytes.NewReader(full.Bytes()), int64(full.Len())); err == nil {
		t.Fatal("DecodeDelta accepted a full index")
	}
	if _, err := Decode(bytes.NewReader(buf.Bytes()), int64(buf.Len())); err == nil {
		t.Fatal("Decode accepted a delta")
	}
}

// TestIndexEncodeDecodeStream round-trips a full index through the
// streaming encoder and checks the evidence survives byte-identically.
func TestIndexEncodeDecodeStream(t *testing.T) {
	idx := Build(testColumns("gamma", 8), DefaultBuildOptions())
	idx.Generation = 7
	var buf bytes.Buffer
	if err := idx.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Generation != 7 || got.Size() != idx.Size() || got.Columns != idx.Columns {
		t.Fatalf("decoded %v, want %v", got, idx)
	}
	for k, e := range idx.All() {
		ge, ok := got.Lookup(k)
		if !ok || ge != e {
			t.Fatalf("entry %q = %+v, want %+v", k, ge, e)
		}
	}
	// Truncation must error, not panic.
	if _, err := Decode(bytes.NewReader(buf.Bytes()[:buf.Len()/2]), int64(buf.Len())); err == nil {
		t.Fatal("Decode accepted a truncated stream")
	}
}

// testColumns synthesizes a few simple columns for round-trip tests.
func testColumns(tag string, n int) []*corpus.Column {
	cols := make([]*corpus.Column, n)
	for i := range cols {
		vals := make([]string, 20)
		for j := range vals {
			vals[j] = tag + "-0123"
		}
		cols[i] = corpus.NewColumn("t", tag, vals)
	}
	return cols
}

// Bounds reports the retained chain's [oldest, newest] Base generations;
// ok is false when the log is empty.
func (l *DeltaLog) Bounds() (oldest, newest uint64, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.deltas) == 0 {
		return 0, 0, false
	}
	return l.deltas[0].Base, l.deltas[len(l.deltas)-1].Base, true
}
