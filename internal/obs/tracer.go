package obs

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// SpanRecord is one completed span as retained in the ring buffer and
// served by GET /debug/traces. All IDs are hex strings so the JSON is
// directly greppable against log lines.
type SpanRecord struct {
	TraceID  string `json:"trace_id"`
	SpanID   string `json:"span_id"`
	ParentID string `json:"parent_span_id,omitempty"`
	Name     string `json:"name"`
	// Route is the matched route pattern for server spans (bounded
	// cardinality, unlike the raw URL path).
	Route  string `json:"route,omitempty"`
	Stream string `json:"stream,omitempty"`
	// Member is the downstream replica a gateway span proxied to.
	Member     string    `json:"member,omitempty"`
	Start      time.Time `json:"start"`
	DurationMS float64   `json:"duration_ms"`
	Status     int       `json:"status,omitempty"`
	Error      string    `json:"error,omitempty"`
}

// ringSize bounds the completed spans a Tracer retains for
// /debug/traces. The ring overwrites oldest-first; Dropped counts what
// was lost.
const ringSize = 512

// TracerConfig configures a Tracer.
type TracerConfig struct {
	// SampleEvery records 1 in N root traces: 1 (and 0, the zero
	// value) samples every root, N>1 samples one in N, and a negative
	// value disables root sampling entirely. Propagated decisions from
	// an upstream traceparent always win over the local rate — a
	// sampled trace stays sampled across every hop it touches.
	SampleEvery int
}

// Tracer records spans into a bounded in-process ring. A nil *Tracer
// is a valid no-op: StartSpan returns nil spans and ServeTraces
// serves an empty listing, so callers never branch on construction.
type Tracer struct {
	sampleEvery int64
	tick        atomic.Int64

	mu       sync.Mutex
	ring     []SpanRecord
	head     int
	recorded uint64
}

// NewTracer builds a tracer.
func NewTracer(cfg TracerConfig) *Tracer {
	every := int64(cfg.SampleEvery)
	if every == 0 {
		every = 1
	}
	return &Tracer{sampleEvery: every}
}

// SampleRoot decides whether a new root trace (no incoming
// traceparent) is recorded.
func (t *Tracer) SampleRoot() bool {
	if t == nil || t.sampleEvery < 0 {
		return false
	}
	if t.sampleEvery == 1 {
		return true
	}
	return t.tick.Add(1)%t.sampleEvery == 1
}

// Span is one in-flight operation. The nil *Span is the unsampled
// span: every method is a no-op on it, so instrumentation sites never
// branch on sampling.
type Span struct {
	tracer *Tracer
	sc     SpanContext
	parent SpanID
	name   string
	route  string
	stream string
	member string
	status int
	err    string
	start  time.Time
}

// Context returns the span's propagated identity.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// SetRoute labels the span with its matched route pattern.
func (s *Span) SetRoute(route string) {
	if s != nil {
		s.route = route
	}
}

// SetStream labels the span with the stream it served.
func (s *Span) SetStream(stream string) {
	if s != nil {
		s.stream = stream
	}
}

// SetMember labels the span with the downstream member it proxied to.
func (s *Span) SetMember(member string) {
	if s != nil {
		s.member = member
	}
}

// SetStatus records the HTTP status the operation answered.
func (s *Span) SetStatus(status int) {
	if s != nil {
		s.status = status
	}
}

// SetError records a failure description.
func (s *Span) SetError(err error) {
	if s != nil && err != nil {
		s.err = err.Error()
	}
}

// End completes the span and folds it into the tracer's ring.
func (s *Span) End() {
	if s == nil {
		return
	}
	rec := SpanRecord{
		TraceID:    s.sc.TraceID.String(),
		SpanID:     s.sc.SpanID.String(),
		Name:       s.name,
		Route:      s.route,
		Stream:     s.stream,
		Member:     s.member,
		Start:      s.start,
		DurationMS: float64(time.Since(s.start)) / float64(time.Millisecond),
		Status:     s.status,
		Error:      s.err,
	}
	if !s.parent.IsZero() {
		rec.ParentID = s.parent.String()
	}
	s.tracer.record(rec)
}

func (t *Tracer) record(rec SpanRecord) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.ring) < ringSize {
		t.ring = append(t.ring, rec)
	} else {
		t.ring[t.head] = rec
		t.head = (t.head + 1) % len(t.ring)
	}
	t.recorded++
}

// StartSpan opens a span under ctx's span context. On an unsampled
// context (or nil tracer) it returns ctx unchanged and a nil span —
// no allocation, which is load-bearing: span instrumentation sits on
// the batch-validation hot path, and sampling a request out must cost
// it nothing.
func (t *Tracer) StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	parent := SpanContextFrom(ctx)
	if parent != nil && !parent.Sampled {
		return ctx, nil
	}
	sp := &Span{tracer: t, name: name, start: time.Now()}
	if parent != nil {
		sp.sc = SpanContext{TraceID: parent.TraceID, SpanID: NewSpanID(), Sampled: true}
		sp.parent = parent.SpanID
	} else {
		// Root span outside any request (replication applies, background
		// loops): the tracer's own sampling decision applies.
		if !t.SampleRoot() {
			return ctx, nil
		}
		sp.sc = SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID(), Sampled: true}
	}
	return ContextWithSpanContext(ctx, &sp.sc), sp
}

// StartServerSpan derives a request's trace identity — continuing the
// incoming traceparent when present and valid, minting a root
// otherwise — and opens the server span when that identity is
// sampled. The returned SpanContext is always usable (for log
// stamping and downstream propagation) even when the span is nil.
func (t *Tracer) StartServerSpan(r *http.Request, name string) (*Span, SpanContext) {
	remote, hasParent := ParseTraceparent(r.Header.Get(TraceparentHeader))
	sc := SpanContext{SpanID: NewSpanID()}
	var parent SpanID
	if hasParent {
		sc.TraceID = remote.TraceID
		sc.Sampled = remote.Sampled && t != nil
		parent = remote.SpanID
	} else {
		sc.TraceID = NewTraceID()
		sc.Sampled = t.SampleRoot()
	}
	if !sc.Sampled {
		return nil, sc
	}
	sp := &Span{tracer: t, sc: sc, parent: parent, name: name, start: time.Now()}
	return sp, sc
}

// TraceFilter selects spans out of the ring.
type TraceFilter struct {
	// TraceID keeps only spans of one trace (hex, exact).
	TraceID string
	// Route keeps only spans whose route equals this pattern.
	Route string
	// MinDuration keeps only spans at least this long.
	MinDuration time.Duration
	// Limit caps the returned spans (0 = all retained).
	Limit int
}

// Snapshot returns the retained spans matching the filter,
// oldest-first, plus the total recorded and dropped-by-eviction
// counts.
func (t *Tracer) Snapshot(f TraceFilter) (spans []SpanRecord, recorded, dropped uint64) {
	if t == nil {
		return nil, 0, 0
	}
	t.mu.Lock()
	ordered := make([]SpanRecord, 0, len(t.ring))
	ordered = append(ordered, t.ring[t.head:]...)
	ordered = append(ordered, t.ring[:t.head]...)
	recorded = t.recorded
	t.mu.Unlock()
	dropped = recorded - uint64(len(ordered))
	minMS := float64(f.MinDuration) / float64(time.Millisecond)
	for _, rec := range ordered {
		if f.TraceID != "" && rec.TraceID != f.TraceID {
			continue
		}
		if f.Route != "" && rec.Route != f.Route {
			continue
		}
		if rec.DurationMS < minMS {
			continue
		}
		spans = append(spans, rec)
	}
	if f.Limit > 0 && len(spans) > f.Limit {
		spans = spans[len(spans)-f.Limit:]
	}
	return spans, recorded, dropped
}

// TracesResponse is the GET /debug/traces payload.
type TracesResponse struct {
	// Recorded counts every span ever recorded; Dropped those evicted
	// from the ring since startup.
	Recorded uint64       `json:"recorded"`
	Dropped  uint64       `json:"dropped"`
	Spans    []SpanRecord `json:"spans"`
}

// ServeTraces handles GET /debug/traces: the retained spans as JSON,
// filterable by ?trace= (hex trace ID), ?route= (exact route
// pattern), ?min_ms= (minimum duration), and ?limit= (most recent N).
// Safe on a nil tracer (empty listing).
func (t *Tracer) ServeTraces(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	f := TraceFilter{TraceID: q.Get("trace"), Route: q.Get("route")}
	if v := q.Get("min_ms"); v != "" {
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil || ms < 0 {
			http.Error(w, "bad min_ms: "+v, http.StatusBadRequest)
			return
		}
		f.MinDuration = time.Duration(ms * float64(time.Millisecond))
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			http.Error(w, "bad limit: "+v, http.StatusBadRequest)
			return
		}
		f.Limit = n
	}
	spans, recorded, dropped := t.Snapshot(f)
	if spans == nil {
		spans = []SpanRecord{}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(TracesResponse{Recorded: recorded, Dropped: dropped, Spans: spans})
}
