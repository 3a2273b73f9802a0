package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestIDGeneration(t *testing.T) {
	tr, sp := NewTraceID(), NewSpanID()
	if tr.IsZero() || sp.IsZero() {
		t.Fatal("generated zero ID")
	}
	if len(tr.String()) != 32 || len(sp.String()) != 16 {
		t.Fatalf("bad hex lengths: %q %q", tr, sp)
	}
	if NewTraceID() == tr {
		t.Fatal("trace IDs repeat")
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	sc := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID(), Sampled: true}
	got, ok := ParseTraceparent(sc.Traceparent())
	if !ok || got != sc {
		t.Fatalf("round trip: got %+v ok=%v want %+v", got, ok, sc)
	}
	sc.Sampled = false
	got, ok = ParseTraceparent(sc.Traceparent())
	if !ok || got != sc {
		t.Fatalf("unsampled round trip: got %+v ok=%v want %+v", got, ok, sc)
	}
}

func TestParseTraceparent(t *testing.T) {
	valid := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	sc, ok := ParseTraceparent(valid)
	if !ok || !sc.Sampled {
		t.Fatalf("spec example rejected: ok=%v sc=%+v", ok, sc)
	}
	if sc.TraceID.String() != "4bf92f3577b34da6a3ce929d0e0e4736" || sc.SpanID.String() != "00f067aa0ba902b7" {
		t.Fatalf("wrong IDs: %+v", sc)
	}
	// Future version with extra fields is accepted; version 00 with
	// extra fields is not.
	if _, ok := ParseTraceparent("cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra"); !ok {
		t.Fatal("future version with suffix rejected")
	}
	bad := []string{
		"",
		"00",
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",
		"00-4bf92f3577b34da6a3ce929d0e0e47zz-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6-00f067aa0ba902b7-01",
		"0-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
	}
	for _, v := range bad {
		if _, ok := ParseTraceparent(v); ok {
			t.Errorf("accepted invalid traceparent %q", v)
		}
	}
}

func TestStartSpanParenting(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	ctx, root := tr.StartSpan(context.Background(), "root")
	if root == nil {
		t.Fatal("root span not sampled at rate 1")
	}
	ctx2, child := tr.StartSpan(ctx, "child")
	if child == nil {
		t.Fatal("child span nil under sampled parent")
	}
	if child.Context().TraceID != root.Context().TraceID {
		t.Fatal("child switched trace")
	}
	if child.parent != root.Context().SpanID {
		t.Fatal("child not parented to root")
	}
	child.End()
	root.End()
	_ = ctx2
	spans, recorded, dropped := tr.Snapshot(TraceFilter{})
	if len(spans) != 2 || recorded != 2 || dropped != 0 {
		t.Fatalf("snapshot: %d spans, recorded=%d dropped=%d", len(spans), recorded, dropped)
	}
	if spans[0].Name != "child" || spans[1].Name != "root" {
		t.Fatalf("completion order wrong: %q, %q", spans[0].Name, spans[1].Name)
	}
	if spans[0].ParentID != spans[1].SpanID {
		t.Fatal("parent link lost in records")
	}
}

func TestStartSpanUnsampledZeroAlloc(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	sc := &SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID(), Sampled: false}
	ctx := ContextWithSpanContext(context.Background(), sc)
	allocs := testing.AllocsPerRun(100, func() {
		c, sp := tr.StartSpan(ctx, "hot")
		sp.SetStream("s")
		sp.SetError(nil)
		sp.End()
		if c != ctx {
			t.Fatal("context rewrapped on unsampled path")
		}
	})
	if allocs != 0 {
		t.Fatalf("unsampled StartSpan allocates %v times", allocs)
	}
	var nilTracer *Tracer
	allocs = testing.AllocsPerRun(100, func() {
		_, sp := nilTracer.StartSpan(ctx, "hot")
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("nil-tracer StartSpan allocates %v times", allocs)
	}
}

func TestSampleEvery(t *testing.T) {
	tr := NewTracer(TracerConfig{SampleEvery: 3})
	sampled := 0
	for i := 0; i < 30; i++ {
		if tr.SampleRoot() {
			sampled++
		}
	}
	if sampled != 10 {
		t.Fatalf("1-in-3 sampling took %d of 30", sampled)
	}
	never := NewTracer(TracerConfig{SampleEvery: -1})
	if never.SampleRoot() {
		t.Fatal("negative rate sampled")
	}
	_, sp := never.StartSpan(context.Background(), "x")
	if sp != nil {
		t.Fatal("never-sample tracer returned a live root span")
	}
}

func TestRingEviction(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	const over = 6
	for i := 0; i < ringSize+over; i++ {
		_, sp := tr.StartSpan(context.Background(), fmt.Sprintf("s%d", i))
		sp.End()
	}
	spans, recorded, dropped := tr.Snapshot(TraceFilter{})
	if len(spans) != ringSize || recorded != ringSize+over || dropped != over {
		t.Fatalf("got %d spans, recorded=%d dropped=%d", len(spans), recorded, dropped)
	}
	first, last := fmt.Sprintf("s%d", over), fmt.Sprintf("s%d", ringSize+over-1)
	if spans[0].Name != first || spans[ringSize-1].Name != last {
		t.Fatalf("ring kept wrong window: %q..%q, want %q..%q", spans[0].Name, spans[ringSize-1].Name, first, last)
	}
}

func TestStartServerSpanContinuesTrace(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	upstream := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID(), Sampled: true}
	r := httptest.NewRequest("GET", "/x", nil)
	r.Header.Set(TraceparentHeader, upstream.Traceparent())
	sp, sc := tr.StartServerSpan(r, "GET /x")
	if sp == nil {
		t.Fatal("sampled upstream not continued")
	}
	if sc.TraceID != upstream.TraceID || sp.parent != upstream.SpanID {
		t.Fatal("server span not parented to upstream")
	}
	// Unsampled upstream: no span, but identity is preserved for logs.
	upstream.Sampled = false
	r.Header.Set(TraceparentHeader, upstream.Traceparent())
	sp, sc = tr.StartServerSpan(r, "GET /x")
	if sp != nil {
		t.Fatal("unsampled upstream produced a span")
	}
	if sc.TraceID != upstream.TraceID || sc.Sampled {
		t.Fatal("unsampled identity not preserved")
	}
	// No header: a fresh root.
	r.Header.Del(TraceparentHeader)
	sp, sc = tr.StartServerSpan(r, "GET /x")
	if sp == nil || sc.TraceID.IsZero() {
		t.Fatal("rootless request did not mint a trace")
	}
}

func TestServeTracesFilters(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	_, a := tr.StartSpan(context.Background(), "a")
	a.SetRoute("GET /one")
	a.End()
	_, b := tr.StartSpan(context.Background(), "b")
	b.SetRoute("POST /two")
	b.End()
	get := func(query string) TracesResponse {
		w := httptest.NewRecorder()
		tr.ServeTraces(w, httptest.NewRequest("GET", "/debug/traces"+query, nil))
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s: %d", query, w.Code)
		}
		var resp TracesResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("bad JSON: %v", err)
		}
		return resp
	}
	if resp := get(""); len(resp.Spans) != 2 || resp.Recorded != 2 {
		t.Fatalf("unfiltered: %+v", resp)
	}
	if resp := get("?route=GET+%2Fone"); len(resp.Spans) != 1 || resp.Spans[0].Name != "a" {
		t.Fatalf("route filter: %+v", resp)
	}
	if resp := get("?trace=" + b.Context().TraceID.String()); len(resp.Spans) != 1 || resp.Spans[0].Name != "b" {
		t.Fatalf("trace filter: %+v", resp)
	}
	if resp := get("?limit=1"); len(resp.Spans) != 1 || resp.Spans[0].Name != "b" {
		t.Fatalf("limit keeps most recent: %+v", resp)
	}
	if resp := get("?min_ms=100000"); len(resp.Spans) != 0 {
		t.Fatalf("min_ms filter: %+v", resp)
	}
	w := httptest.NewRecorder()
	tr.ServeTraces(w, httptest.NewRequest("GET", "/debug/traces?min_ms=bogus", nil))
	if w.Code != http.StatusBadRequest {
		t.Fatalf("bad min_ms accepted: %d", w.Code)
	}
	var nilTracer *Tracer
	w = httptest.NewRecorder()
	nilTracer.ServeTraces(w, httptest.NewRequest("GET", "/debug/traces", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("nil tracer listing: %d", w.Code)
	}
}

func TestHandlerMiddleware(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	var buf bytes.Buffer
	log := NewLogger(&buf, "test")
	var inner *SpanContext
	h := Handler(tr, log, "GET /hello", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inner = SpanContextFrom(r.Context())
		Logger(r.Context()).Info("inside")
		w.WriteHeader(http.StatusTeapot)
	}))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/hello", nil))
	if inner == nil || !inner.Sampled {
		t.Fatal("handler saw no sampled span context")
	}
	traceID := inner.TraceID.String()
	if got := w.Header().Get(TraceIDHeader); got != traceID {
		t.Fatalf("X-Trace-Id %q != %q", got, traceID)
	}
	spans, _, _ := tr.Snapshot(TraceFilter{TraceID: traceID})
	if len(spans) != 1 || spans[0].Route != "GET /hello" || spans[0].Status != http.StatusTeapot {
		t.Fatalf("server span wrong: %+v", spans)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 log lines (inside + completion), got %d: %s", len(lines), buf.String())
	}
	for _, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line not JSON: %v in %q", err, line)
		}
		if rec["trace_id"] != traceID || rec["component"] != "test" || rec["route"] != "GET /hello" {
			t.Fatalf("log line missing trace fields: %q", line)
		}
	}
}

func TestDebugMux(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	_, sp := tr.StartSpan(context.Background(), "x")
	sp.End()
	mux := DebugMux(tr)
	for _, path := range []string{"/debug/traces", "/debug/pprof/cmdline"} {
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		if w.Code != http.StatusOK {
			t.Errorf("GET %s: %d", path, w.Code)
		}
	}
}

func TestHistogramAndWriter(t *testing.T) {
	h := NewHistogram(nil)
	h.Observe(700 * time.Microsecond)
	h.Observe(3 * time.Millisecond)
	h.Observe(time.Minute) // lands in +Inf
	cum, count, sum := h.Snapshot()
	if count != 3 || cum[len(cum)-1] != 3 {
		t.Fatalf("count=%d +Inf=%d", count, cum[len(cum)-1])
	}
	if sum < 60 {
		t.Fatalf("sum %g lost the minute", sum)
	}
	var mw MetricWriter
	mw.Counter("test_total", "A counter.", 7)
	mw.Gauge("test_gauge", "A gauge.", 1.5)
	mw.Family("test_seconds", "A histogram.", "histogram")
	mw.Histogram("test_seconds", Label("route", "GET /x"), h)
	mw.Histogram("test_seconds", Label("route", "idle"), NewHistogram(nil)) // skipped: empty
	out := mw.String()
	if !strings.Contains(out, "test_total 7\n") || !strings.Contains(out, "test_gauge 1.5\n") {
		t.Fatalf("scalar samples missing:\n%s", out)
	}
	if !strings.Contains(out, `test_seconds_bucket{route="GET /x",le="+Inf"} 3`) {
		t.Fatalf("+Inf bucket missing:\n%s", out)
	}
	if strings.Contains(out, "idle") {
		t.Fatalf("empty histogram series emitted:\n%s", out)
	}
	w := httptest.NewRecorder()
	mw.WriteResponse(w)
	if ct := w.Header().Get("Content-Type"); ct != ExpositionContentType {
		t.Fatalf("content type %q", ct)
	}
}
