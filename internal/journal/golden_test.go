package journal

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"autovalidate/internal/frame/frametest"
)

// goldenEvents are the events testdata/golden.avj was appended from by
// the last commit that framed AVJRN1 records by hand. The Times are
// fixed, so the segment bytes are a pure function of this list.
func goldenEvents() []Event {
	at := func(sec int) time.Time { return time.Date(2026, 3, 1, 3, 12, sec, 0, time.UTC) }
	return []Event{
		{Time: at(0), Kind: KindRegistryPut, Stream: "orders/id", TraceID: "t-1"},
		{Time: at(7), Kind: KindDecision, Stream: "orders/id", TraceID: "t-2", Action: "alarm",
			Detail: json.RawMessage(`{"p_value":0.0004,"misses":12}`)},
		{Time: at(9), Kind: KindIngest, Detail: json.RawMessage(`{"columns":7}`)},
	}
}

// TestGoldenSegment: the parent's AVJRN1 segment reads back as the
// events it was appended from, and appending those events again writes
// the very same bytes.
func TestGoldenSegment(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "golden.avj"))
	if err != nil {
		t.Fatal(err)
	}
	want := goldenEvents()

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(1)), golden, 0o644); err != nil {
		t.Fatal(err)
	}
	j := openT(t, dir, Options{})
	got, err := j.Events(Filter{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("golden segment holds %d events, want %d", len(got), len(want))
	}
	for i := range want {
		want[i].ID = uint64(i + 1)
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("event %d:\n got %+v\nwant %+v", i+1, got[i], want[i])
		}
	}
	if j.LastID() != uint64(len(want)) {
		t.Errorf("LastID %d after adopting the golden segment, want %d", j.LastID(), len(want))
	}

	fresh := t.TempDir()
	j2 := openT(t, fresh, Options{})
	for _, e := range goldenEvents() {
		mustAppend(t, j2, e)
	}
	rewritten, err := os.ReadFile(filepath.Join(fresh, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rewritten, golden) {
		t.Errorf("re-appended segment differs from the golden bytes (%d vs %d bytes)", len(rewritten), len(golden))
	}
}

// TestCorruptionTable runs the golden segment through the shared
// corruption table. Open either refuses the segment (a whole but wrong
// magic) or adopts a prefix of the original events — the journal's
// contract is the valid prefix, not an error — and the repaired journal
// always takes the next append.
func TestCorruptionTable(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "golden.avj"))
	if err != nil {
		t.Fatal(err)
	}
	want := goldenEvents()
	dir := t.TempDir()
	seg := filepath.Join(dir, segName(1))
	frametest.Corrupt(t, golden, func(damage string, bad []byte) {
		if err := os.WriteFile(seg, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := Open(dir, Options{})
		if err != nil {
			if bytes.HasPrefix(bad, []byte(jrnMagic)) || len(bad) < len(jrnMagic) {
				t.Errorf("%s: Open failed though the magic was not wrong: %v", damage, err)
			}
			return
		}
		defer j.Close()
		got, err := j.Events(Filter{})
		if err != nil {
			t.Fatalf("%s: %v", damage, err)
		}
		if len(got) >= len(want) {
			t.Fatalf("%s: read %d events from a damaged segment of %d", damage, len(got), len(want))
		}
		for i, e := range got {
			if e.ID != uint64(i+1) || e.Kind != want[i].Kind || !e.Time.Equal(want[i].Time) {
				t.Errorf("%s: event %d came back as %+v", damage, i+1, e)
			}
		}
		id, err := j.Append(Event{Kind: KindIngest})
		if err != nil || id != uint64(len(got)+1) {
			t.Errorf("%s: append after repair got id %d, %v; want %d", damage, id, err, len(got)+1)
		}
	})
}
