// Package journal is the drift-forensics audit log: an append-only,
// segmented event journal recording every monitor decision that
// matters (alarms, quarantines, state transitions), re-inferences,
// ingests, replication installs, and registry mutations — each stamped
// with the trace ID of the request that caused it. It is the durable
// half of the observability story: /debug/traces and the monitor's
// in-memory window evaporate on restart; the journal is what an
// operator greps at 9am to learn why a stream quarantined at 03:12.
//
// On disk the journal is one directory of segment files, each an
// internal/frame artifact: magic "AVJRN1\n", no header, one checksummed
// section per event holding its JSON.
//
// Event IDs are assigned at append time, monotonically increasing
// across segments for the journal's lifetime; the ID doubles as the
// read cursor (GET /events?after=). Segments rotate at a byte
// threshold and the oldest are deleted past a retention count, so the
// journal is a bounded sliding window, not an unbounded log. A torn
// tail (crash mid-append) is truncated at open; a CRC failure mid-read
// ends that segment's events — corrupt input is an error or a short
// read, never a panic.
package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"autovalidate/internal/frame"
)

// Kind discriminates journal events.
type Kind string

// Event kinds. Decision events carry a monitor.Decision as their
// detail; the replication and registry kinds carry small ad-hoc
// objects described in the service layer.
const (
	KindDecision        Kind = "decision"
	KindReinfer         Kind = "reinfer"
	KindIngest          Kind = "ingest"
	KindDeltaApply      Kind = "delta_apply"
	KindSnapshotInstall Kind = "snapshot_install"
	KindRegistryPut     Kind = "registry_put"
	KindRegistryDelete  Kind = "registry_delete"
)

// Event is one journal record. ID and Time are assigned by Append.
type Event struct {
	// ID is the journal-assigned monotonic identifier; it doubles as
	// the pagination cursor (events with ID > after).
	ID uint64 `json:"id"`
	// Time is the append wall time (UTC).
	Time time.Time `json:"time"`
	Kind Kind      `json:"kind"`
	// Stream names the affected stream, when the event concerns one.
	Stream string `json:"stream,omitempty"`
	// TraceID correlates the event with request logs and /debug/traces.
	TraceID string `json:"trace_id,omitempty"`
	// Action is the monitor action of decision events ("alarm", ...).
	Action string `json:"action,omitempty"`
	// Detail is the kind-specific payload, stored verbatim.
	Detail json.RawMessage `json:"detail,omitempty"`
}

// Options configures a journal's rotation and retention.
type Options struct {
	// MaxSegmentBytes rotates the active segment once it exceeds this
	// size (0 = 4 MiB).
	MaxSegmentBytes int64
	// MaxSegments caps retained segments including the active one;
	// older segments are deleted at rotation (0 = 8).
	MaxSegments int
}

const (
	defaultSegmentBytes = 4 << 20
	defaultMaxSegments  = 8
	// maxRecord bounds one event's payload so a corrupt length prefix
	// cannot drive a huge allocation.
	maxRecord = 1 << 20
	segSuffix = ".avj"
)

const jrnMagic = "AVJRN1\n"

// Journal is an open event journal. Safe for concurrent use: appends
// serialize behind a writer lock, reads run under a reader lock (the
// active segment's torn tail — an append in flight — reads as
// end-of-segment).
type Journal struct {
	dir string
	opt Options

	mu       sync.RWMutex
	segs     []segmentRef // sorted by firstID, active last
	active   *os.File
	activeN  int64  // bytes written to the active segment
	nextID   uint64 // ID the next append receives
	appended uint64 // events appended by this process (telemetry)
}

// segmentRef is one on-disk segment.
type segmentRef struct {
	path    string
	firstID uint64 // ID of the segment's first event (from its name)
}

// segName encodes a segment's first event ID; the hex form keeps
// lexical order equal to numeric order.
func segName(firstID uint64) string {
	return fmt.Sprintf("seg-%016x%s", firstID, segSuffix)
}

// Filter selects events out of the journal. The zero Filter returns
// everything (bounded by Limit's default).
type Filter struct {
	// AfterID returns only events with ID strictly greater — the
	// pagination cursor.
	AfterID uint64
	// ID returns exactly the event with this ID (0 = no constraint).
	ID uint64
	// Stream, Kind, and TraceID match exactly when non-empty.
	Stream  string
	Kind    Kind
	TraceID string
	// Since keeps events at or after this time.
	Since time.Time
	// Limit caps returned events (0 = 1000). Events come oldest-first,
	// so the last returned ID is the next page's AfterID.
	Limit int
}

// DefaultLimit is the page size when a Filter does not set one.
const DefaultLimit = 1000

// Open opens (or creates) the journal directory. Existing segments are
// adopted; the last one is scanned and any torn or corrupt tail is
// truncated away, so an interrupted append or rotation never poisons
// the journal — corrupt bytes cost the events after them in that
// segment, nothing more, and never a panic.
func Open(dir string, opt Options) (*Journal, error) {
	if opt.MaxSegmentBytes <= 0 {
		opt.MaxSegmentBytes = defaultSegmentBytes
	}
	if opt.MaxSegments <= 0 {
		opt.MaxSegments = defaultMaxSegments
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: creating %s: %w", dir, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("journal: reading %s: %w", dir, err)
	}
	j := &Journal{dir: dir, opt: opt, nextID: 1}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		var firstID uint64
		if _, err := fmt.Sscanf(name, "seg-%016x", &firstID); err != nil {
			continue // not ours; leave it alone
		}
		j.segs = append(j.segs, segmentRef{path: filepath.Join(dir, name), firstID: firstID})
	}
	sort.Slice(j.segs, func(a, b int) bool { return j.segs[a].firstID < j.segs[b].firstID })

	if n := len(j.segs); n > 0 {
		last := j.segs[n-1]
		lastID, validEnd, err := scanSegment(last.path, nil)
		if err != nil {
			return nil, err
		}
		// Cut a torn or corrupt tail back to the last whole, checksummed
		// record; appends continue from there.
		if j.active, j.activeN, err = openSegment(last.path, validEnd); err != nil {
			return nil, err
		}
		// A segment without valid records still records in its name
		// where numbering was headed.
		j.nextID = max(lastID+1, last.firstID)
	}
	return j, nil
}

// Dir returns the journal's directory (for diagnostics and artifact
// collection).
func (j *Journal) Dir() string { return j.dir }

// LastID returns the highest event ID ever assigned (0 when empty).
func (j *Journal) LastID() uint64 {
	j.mu.RLock()
	defer j.mu.RUnlock()
	return j.nextID - 1
}

// Appended counts events appended by this process.
func (j *Journal) Appended() uint64 {
	j.mu.RLock()
	defer j.mu.RUnlock()
	return j.appended
}

// Append stamps the event with the next ID and the current time,
// writes it durably to the active segment, and rotates/retires
// segments as configured. It returns the assigned ID.
func (j *Journal) Append(e Event) (uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.active == nil {
		if err := j.rotateLocked(); err != nil {
			return 0, err
		}
	}
	e.ID = j.nextID
	if e.Time.IsZero() {
		e.Time = time.Now().UTC()
	}
	payload, err := json.Marshal(&e)
	if err != nil {
		return 0, fmt.Errorf("journal: encoding event: %w", err)
	}
	if len(payload) > maxRecord {
		return 0, fmt.Errorf("journal: event of %d bytes exceeds record bound %d", len(payload), maxRecord)
	}
	if err := frame.WriteSection(j.active, payload); err != nil {
		return 0, fmt.Errorf("journal: appending event %d: %w", e.ID, err)
	}
	// Events are rare (alarms, transitions, ingests — never steady-state
	// accepts), so a per-append sync buys real durability for trivial
	// throughput cost.
	if err := j.active.Sync(); err != nil {
		return 0, fmt.Errorf("journal: syncing event %d: %w", e.ID, err)
	}
	j.activeN += frame.SectionOverhead + int64(len(payload))
	j.nextID++
	j.appended++
	if j.activeN >= j.opt.MaxSegmentBytes {
		if err := j.rotateLocked(); err != nil {
			// The event itself is durable; rotation failure surfaces on
			// this append so the operator hears about a full disk early.
			return e.ID, err
		}
	}
	return e.ID, nil
}

// rotateLocked seals the active segment, starts a new one named by the
// next event ID, and deletes the oldest segments past retention; the
// directory is synced after, so a durable append never lives in a file
// whose directory entry a crash could lose. Caller holds the write lock.
func (j *Journal) rotateLocked() error {
	if j.active != nil {
		if err := j.active.Close(); err != nil {
			return fmt.Errorf("journal: closing sealed segment: %w", err)
		}
		j.active = nil
	}
	path := filepath.Join(j.dir, segName(j.nextID))
	f, n, err := openSegment(path, 0)
	if err != nil {
		return err
	}
	j.segs = append(j.segs, segmentRef{path: path, firstID: j.nextID})
	j.active, j.activeN = f, n
	for len(j.segs) > j.opt.MaxSegments {
		old := j.segs[0]
		if err := os.Remove(old.path); err != nil {
			return fmt.Errorf("journal: retiring segment %s: %w", old.path, err)
		}
		j.segs = j.segs[1:]
	}
	if err := frame.SyncDir(j.dir); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// openSegment opens a segment for append with everything past its first
// keep bytes cut away. keep == 0 starts the segment — or restarts one a
// crash tore between its creation and its magic — by writing the magic.
// It returns the file and its length.
func openSegment(path string, keep int64) (*os.File, int64, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("journal: opening segment %s: %w", path, err)
	}
	err = f.Truncate(keep)
	if err == nil && keep == 0 {
		err = frame.Write(f, jrnMagic, nil)
		keep = int64(len(jrnMagic))
	}
	if err != nil {
		_ = f.Close() // best effort; the write error is the story
		return nil, 0, fmt.Errorf("journal: opening segment %s: %w", path, err)
	}
	return f, keep, nil
}

// Close seals the journal. Further appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.active == nil {
		return nil
	}
	err := j.active.Close()
	j.active = nil
	if err != nil {
		return fmt.Errorf("journal: closing active segment: %w", err)
	}
	return nil
}

// Events returns the retained events matching the filter, oldest
// first. A corrupt record ends its segment's contribution (everything
// before it is returned); reads never fail on bad bytes, only on I/O.
func (j *Journal) Events(f Filter) ([]Event, error) {
	limit := f.Limit
	if limit <= 0 {
		limit = DefaultLimit
	}
	j.mu.RLock()
	defer j.mu.RUnlock()
	out := []Event{}
	for i, seg := range j.segs {
		// A segment is skippable when the next segment starts at or
		// below the cursor — every ID inside is <= the cursor too.
		if i+1 < len(j.segs) && j.segs[i+1].firstID <= f.AfterID+1 {
			continue
		}
		stop := false
		_, _, err := scanSegment(seg.path, func(e Event) bool {
			if !matchEvent(e, f) {
				return true
			}
			out = append(out, e)
			if len(out) >= limit {
				stop = true
				return false
			}
			return true
		})
		if err != nil {
			return nil, err
		}
		if stop {
			break
		}
	}
	return out, nil
}

func matchEvent(e Event, f Filter) bool {
	if e.ID <= f.AfterID {
		return false
	}
	if f.ID != 0 && e.ID != f.ID {
		return false
	}
	if f.Stream != "" && e.Stream != f.Stream {
		return false
	}
	if f.Kind != "" && e.Kind != f.Kind {
		return false
	}
	if f.TraceID != "" && e.TraceID != f.TraceID {
		return false
	}
	if !f.Since.IsZero() && e.Time.Before(f.Since) {
		return false
	}
	return true
}

// scanSegment walks one segment's records, calling fn (when non-nil)
// per decoded event until it returns false. It returns the last valid
// event ID seen (0 if none) and the byte offset just past the last
// whole, checksum-valid, decodable record — the truncation point for a
// torn tail, 0 for a segment whose very magic was torn (a crash
// mid-rotation). Malformed framing, a short tail, or a CRC mismatch end
// the scan at the previous record; only real I/O problems and a whole
// but foreign magic surface as errors.
func scanSegment(path string, fn func(Event) bool) (lastID uint64, validEnd int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, fmt.Errorf("journal: reading segment %s: %w", path, err)
	}
	if len(data) < len(jrnMagic) {
		return 0, 0, nil
	}
	fr, err := frame.ReadMagic(bytes.NewReader(data), jrnMagic)
	if err != nil {
		return 0, 0, fmt.Errorf("journal: %s is not an AVJRN1 segment: %w", path, err)
	}
	validEnd = fr.Offset()
	for {
		payload, err := fr.ReadSection(maxRecord)
		if err != nil {
			break // end of segment, torn frame, corrupt length or bit rot
		}
		var e Event
		if err := json.Unmarshal(payload, &e); err != nil {
			break // checksummed but undecodable: treat as corrupt
		}
		lastID, validEnd = e.ID, fr.Offset()
		if fn != nil && !fn(e) {
			break // caller has what it wanted
		}
	}
	return lastID, validEnd, nil
}
