package journal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func mustAppend(t *testing.T, j *Journal, e Event) uint64 {
	t.Helper()
	id, err := j.Append(e)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func openT(t *testing.T, dir string, opt Options) *Journal {
	t.Helper()
	j, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

func TestAppendReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, dir, Options{})
	for i := 0; i < 5; i++ {
		id := mustAppend(t, j, Event{
			Kind:    KindDecision,
			Stream:  fmt.Sprintf("s%d", i%2),
			TraceID: "abc",
			Action:  "alarm",
			Detail:  json.RawMessage(`{"seq":` + fmt.Sprint(i) + `}`),
		})
		if id != uint64(i+1) {
			t.Fatalf("append %d got id %d", i, id)
		}
	}
	evs, err := j.Events(Filter{})
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 5 {
		t.Fatalf("got %d events, want 5", len(evs))
	}
	for i, e := range evs {
		if e.ID != uint64(i+1) {
			t.Errorf("event %d has ID %d", i, e.ID)
		}
		if e.Time.IsZero() {
			t.Errorf("event %d missing timestamp", i)
		}
	}
	// Filters.
	evs, _ = j.Events(Filter{Stream: "s1"})
	if len(evs) != 2 {
		t.Errorf("stream filter: got %d, want 2", len(evs))
	}
	evs, _ = j.Events(Filter{AfterID: 3})
	if len(evs) != 2 || evs[0].ID != 4 {
		t.Errorf("cursor filter: got %+v", evs)
	}
	evs, _ = j.Events(Filter{ID: 2})
	if len(evs) != 1 || evs[0].ID != 2 {
		t.Errorf("id filter: got %+v", evs)
	}
	evs, _ = j.Events(Filter{Limit: 2})
	if len(evs) != 2 || evs[1].ID != 2 {
		t.Errorf("limit: got %+v", evs)
	}
	evs, _ = j.Events(Filter{TraceID: "nope"})
	if len(evs) != 0 {
		t.Errorf("trace filter: got %+v", evs)
	}
}

// TestTruncatedTailRecovery: a crash mid-append leaves a torn frame at
// the segment tail. Open must truncate it away, keep everything before
// it, and continue numbering where the valid prefix ended.
func TestTruncatedTailRecovery(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, dir, Options{})
	for i := 0; i < 3; i++ {
		mustAppend(t, j, Event{Kind: KindIngest, Stream: "s"})
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	seg := filepath.Join(dir, segName(1))
	// Simulate the torn append three ways: cut mid-payload, mid-header,
	// and append a garbage half-frame.
	for _, tear := range []func([]byte) []byte{
		func(b []byte) []byte { return b[:len(b)-5] },
		func(b []byte) []byte { return b[:len(b)-1] },
		func(b []byte) []byte { return append(b, 0xFF, 0x01) },
	} {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(seg, tear(data), 0o644); err != nil {
			t.Fatal(err)
		}
		j2, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		evs, err := j2.Events(Filter{})
		if err != nil {
			t.Fatal(err)
		}
		// The torn record is the last one; the first two (or, after the
		// garbage-append tear, all three) survive.
		if len(evs) < 2 {
			t.Fatalf("tail recovery kept %d events, want >= 2", len(evs))
		}
		id := mustAppend(t, j2, Event{Kind: KindIngest, Stream: "s"})
		if id <= evs[len(evs)-1].ID {
			t.Fatalf("post-recovery id %d not above surviving tail %d", id, evs[len(evs)-1].ID)
		}
		evs2, _ := j2.Events(Filter{})
		if len(evs2) != len(evs)+1 {
			t.Fatalf("post-recovery read: %d events, want %d", len(evs2), len(evs)+1)
		}
		j2.Close()
	}
}

// TestCRCCorruptionMidSegment: a flipped bit in an early record must
// not fail reads — events before the corruption are served, events
// after it (now unverifiable) are dropped, and Open still refuses to
// re-trust the suspect tail.
func TestCRCCorruptionMidSegment(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, dir, Options{})
	for i := 0; i < 4; i++ {
		mustAppend(t, j, Event{Kind: KindIngest, Stream: "s"})
	}
	j.Close()

	seg := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Record 2's payload starts after magic + record 1. Flip one of its
	// payload bytes.
	off := len(jrnMagic)
	n1 := int(binary.LittleEndian.Uint32(data[off:]))
	off2 := off + 8 + n1 // record 2's header
	data[off2+8+4] ^= 0x40
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	evs, err := j2.Events(Filter{})
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || evs[0].ID != 1 {
		t.Fatalf("after mid-segment corruption got %+v, want only event 1", evs)
	}
	// Appends restart above everything previously assigned in the
	// segment's valid prefix; new events land after the truncation.
	mustAppend(t, j2, Event{Kind: KindIngest, Stream: "s"})
	evs, _ = j2.Events(Filter{})
	if len(evs) != 2 {
		t.Fatalf("post-corruption append not readable: %+v", evs)
	}
}

// TestRotationAndRetention: appends past the segment byte threshold
// rotate; rotation past the retention count deletes the oldest
// segment, and the deleted events stop being served.
func TestRotationAndRetention(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every event rotates; keep only 2 segments.
	j := openT(t, dir, Options{MaxSegmentBytes: 1, MaxSegments: 2})
	for i := 0; i < 5; i++ {
		mustAppend(t, j, Event{Kind: KindIngest, Stream: "s"})
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("retention kept %d segments %v, want 2", len(entries), names)
	}
	evs, err := j.Events(Filter{})
	if err != nil {
		t.Fatal(err)
	}
	// Retention is by segment, not event count: the survivors are the
	// newest events, contiguous up to the last append.
	if len(evs) == 0 || len(evs) >= 5 {
		t.Fatalf("got %d events after retention, want a proper newest suffix", len(evs))
	}
	if evs[len(evs)-1].ID != 5 {
		t.Errorf("newest event = %d, want 5", evs[len(evs)-1].ID)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].ID != evs[i-1].ID+1 {
			t.Errorf("retained events not contiguous: %+v", evs)
		}
	}
	if j.LastID() != 5 {
		t.Errorf("LastID = %d, want 5", j.LastID())
	}

	// Reopen across the retention boundary: numbering continues, old
	// events stay gone.
	j.Close()
	j2 := openT(t, dir, Options{MaxSegmentBytes: 1, MaxSegments: 2})
	if id := mustAppend(t, j2, Event{Kind: KindIngest}); id != 6 {
		t.Errorf("post-reopen id = %d, want 6", id)
	}
	evs, _ = j2.Events(Filter{AfterID: 0})
	if evs[0].ID <= 3 {
		t.Errorf("reopen resurrected retired events: %+v", evs)
	}
}

// TestConcurrentAppendWhileRead: readers racing appenders must see
// only whole events, in order, with no errors — the torn tail of an
// in-flight append reads as end-of-segment. Run under -race.
func TestConcurrentAppendWhileRead(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, dir, Options{MaxSegmentBytes: 2048, MaxSegments: 64})
	const total = 200
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < total; i++ {
			if _, err := j.Append(Event{Kind: KindDecision, Stream: "s", Detail: json.RawMessage(`{"i":1}`)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		evs, err := j.Events(Filter{Limit: total + 1})
		if err != nil {
			t.Error(err)
			break
		}
		for i := 1; i < len(evs); i++ {
			if evs[i].ID != evs[i-1].ID+1 {
				t.Fatalf("reader saw gap: %d then %d", evs[i-1].ID, evs[i].ID)
			}
		}
		select {
		case <-done:
			evs, err := j.Events(Filter{Limit: total + 1})
			if err != nil {
				t.Fatal(err)
			}
			if len(evs) != total {
				t.Fatalf("final read: %d events, want %d", len(evs), total)
			}
			return
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

// TestOpenRejectsBadMagic: a file wearing the segment name but not the
// format must be a wrapped error, never a panic.
func TestOpenRejectsBadMagic(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(1)), []byte("NOTJRN\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open accepted a segment with bad magic")
	}
}

// TestTornRotationRecovers: a crash between creating a segment and its
// magic reaching the disk leaves a last segment shorter than the magic.
// Open must take it for the empty segment it is, restore it, and keep
// numbering where the segment's name says it was headed.
func TestTornRotationRecovers(t *testing.T) {
	for k := 0; k < len(jrnMagic); k++ {
		dir := t.TempDir()
		j := openT(t, dir, Options{})
		for i := 0; i < 3; i++ {
			mustAppend(t, j, Event{Kind: KindIngest, Stream: "s"})
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		torn := filepath.Join(dir, segName(4))
		if err := os.WriteFile(torn, []byte(jrnMagic[:k]), 0o644); err != nil {
			t.Fatal(err)
		}
		j2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("%d-byte last segment: Open: %v", k, err)
		}
		if data, _ := os.ReadFile(torn); string(data) != jrnMagic {
			t.Errorf("%d-byte last segment restored as %q", k, data)
		}
		if id := mustAppend(t, j2, Event{Kind: KindIngest, Stream: "s"}); id != 4 {
			t.Errorf("%d-byte last segment: next id %d, want 4", k, id)
		}
		evs, err := j2.Events(Filter{})
		if err != nil || len(evs) != 4 {
			t.Errorf("%d-byte last segment: read %d events, %v; want 4", k, len(evs), err)
		}
		j2.Close()
	}
}

// TestSinceFilter: time filtering keeps only events at/after the mark.
func TestSinceFilter(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, dir, Options{})
	mustAppend(t, j, Event{Kind: KindIngest, Time: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)})
	mustAppend(t, j, Event{Kind: KindIngest, Time: time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC)})
	evs, err := j.Events(Filter{Since: time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC)})
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || evs[0].ID != 2 {
		t.Fatalf("since filter: got %+v, want only event 2", evs)
	}
}
