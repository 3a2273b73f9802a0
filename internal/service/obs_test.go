package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"autovalidate/internal/core"
	"autovalidate/internal/monitor"
	"autovalidate/internal/obs"
	"autovalidate/internal/obs/promtest"
	"autovalidate/internal/validate"
)

// tracedServer returns a server over the fixture index with the given
// tracer installed.
func tracedServer(t *testing.T, tracer *obs.Tracer) *Server {
	t.Helper()
	opt := core.DefaultOptions()
	opt.M = 5
	srv, err := New(Config{Index: testIndex(t), Options: &opt, CacheSize: 16, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// cachedRule infers a rule through the service and returns it from the
// rule cache — the exact object the columnar hot path validates with.
func cachedRule(t *testing.T, srv *Server, ts *httptest.Server) *validate.Rule {
	t.Helper()
	var resp InferResponse
	if code := post(t, ts, "/infer", InferRequest{Values: trainValues(t, "timestamp_us", 100, 3)}, &resp); code != http.StatusOK {
		t.Fatalf("/infer: status %d", code)
	}
	rule, ok := srv.snap.Load().cache.get(resp.Fingerprint)
	if !ok {
		t.Fatalf("inferred fingerprint %s not in cache", resp.Fingerprint)
	}
	return rule
}

// TestBatchValidateZeroAllocsWhenUnsampled is the observability
// acceptance bound: instrumenting the batch-validate hot path must cost
// nothing when the request's trace was sampled out — the span calls
// collapse to nil-receiver no-ops and the compiled validator reuses its
// pooled scratch.
func TestBatchValidateZeroAllocsWhenUnsampled(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop puts; alloc counts are meaningless")
	}
	srv := tracedServer(t, obs.NewTracer(obs.TracerConfig{SampleEvery: -1}))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	rule := cachedRule(t, srv, ts)

	vals := trainValues(t, "timestamp_us", 500, 11)
	batch := make([][]byte, len(vals))
	for i, v := range vals {
		batch[i] = []byte(v)
	}
	rep := validate.AcquireBatchReport()
	defer rep.Release()

	// The context an unsampled request carries: trace identity present
	// (for log correlation), sampling off.
	sc := &obs.SpanContext{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID()}
	ctx := obs.ContextWithSpanContext(context.Background(), sc)

	// Warm the report capacity and the program's scratch pool.
	if err := rule.ValidateBatch(batch, rep); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		_, sp := srv.tracer.StartSpan(ctx, "monitor.check")
		sp.SetStream("hot")
		err := rule.ValidateBatch(batch, rep)
		sp.SetError(err)
		sp.End()
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("unsampled traced batch-validate: %.1f allocs per batch, want 0", allocs)
	}
}

// TestMetricsExpositionValidUnderTraffic lints /metrics with the
// exposition parser while validation and stream-check traffic runs
// concurrently — the scrape must stay parseable (ordered HELP/TYPE,
// monotone buckets, no duplicate series) at every interleaving. Run
// with -race this doubles as a data-race probe over the metric
// registries.
func TestMetricsExpositionValidUnderTraffic(t *testing.T) {
	srv := tracedServer(t, obs.NewTracer(obs.TracerConfig{SampleEvery: 2}))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if code := post(t, ts, "/infer", InferRequest{Values: trainValues(t, "ipv4", 80, 5)}, nil); code != http.StatusOK {
		t.Fatalf("/infer: status %d", code)
	}
	put, err := http.NewRequest(http.MethodPut, ts.URL+"/streams/obs",
		strings.NewReader(fmt.Sprintf(`{"train": %s}`, mustJSON(t, trainValues(t, "guid", 80, 6)))))
	if err != nil {
		t.Fatal(err)
	}
	put.Header.Set("Content-Type", "application/json")
	if resp, err := http.DefaultClient.Do(put); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("stream registration: %v %v", err, resp)
	} else {
		resp.Body.Close()
	}

	const workers, rounds = 4, 10
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(seed int64) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				post(t, ts, "/validate", map[string]any{"values": trainValues(t, "ipv4", 20, seed)}, nil)
				post(t, ts, "/streams/obs/check", map[string]any{"values": trainValues(t, "guid", 20, seed+1)}, nil)
			}
		}(int64(100 + w))
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	for {
		body := scrape(t, ts)
		if errs := promtest.Lint(body); len(errs) != 0 {
			t.Fatalf("/metrics failed exposition lint mid-traffic: %v", errs)
		}
		select {
		case <-done:
			// One final scrape after the traffic settles; the stream
			// gauge and build info must be present by now.
			body := scrape(t, ts)
			if errs := promtest.Lint(body); len(errs) != 0 {
				t.Fatalf("/metrics failed exposition lint after traffic: %v", errs)
			}
			for _, want := range []string{
				"autovalidate_build_info",
				`autovalidate_stream_state{stream="obs",state="accept"}`,
				"autovalidate_replication_leader_generation",
				"autovalidate_replication_apply_duration_seconds",
				`autovalidate_infer_segments_total{memo="hit"}`,
				`autovalidate_infer_segments_total{memo="miss"}`,
				"autovalidate_infer_candidates_total",
				"autovalidate_infer_index_hits_total",
			} {
				if !strings.Contains(body, want) {
					t.Errorf("exposition missing %q", want)
				}
			}
			return
		default:
		}
	}
}

// TestStreamStateGaugeDroppedOnDelete: DELETE /streams/{name} must
// drop the stream's autovalidate_stream_state series from /metrics —
// including when a check that loaded its stream snapshot before the
// delete lands afterwards and resurrects monitor state for the
// now-unregistered name.
func TestStreamStateGaugeDroppedOnDelete(t *testing.T) {
	srv := testServer(t, 16)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	train := trainValues(t, "guid", 80, 9)
	putStream(t, ts, "doomed", train)
	if code := post(t, ts, "/streams/doomed/check", StreamCheckRequest{Values: trainValues(t, "guid", 40, 10)}, nil); code != http.StatusOK {
		t.Fatalf("check: status %d", code)
	}
	if body := scrape(t, ts); !strings.Contains(body, `autovalidate_stream_state{stream="doomed",state="accept"} 1`) {
		t.Fatalf("stream_state series missing before delete:\n%s", body)
	}

	// An in-flight check holds its registry snapshot across the delete.
	snapshot, ok := srv.Registry().Get("doomed")
	if !ok {
		t.Fatal("stream not registered")
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/streams/doomed", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	// The stale check lands after the delete's monitor reset, recreating
	// rolling state for a stream the registry no longer knows.
	if _, err := srv.Monitor().Check(snapshot, trainValues(t, "guid", 40, 11)); err != nil {
		t.Fatal(err)
	}

	body := scrape(t, ts)
	if strings.Contains(body, `stream="doomed"`) {
		t.Errorf("deleted stream still exposed in /metrics:\n%s", body)
	}
	if errs := promtest.Lint(body); len(errs) != 0 {
		t.Errorf("exposition lint after delete: %v", errs)
	}
}

// TestJournalZeroAllocsOnAcceptFastPath is the forensics acceptance
// bound: with the journal enabled, a steady-state accepting batch —
// no transition, nothing to journal — must not allocate on the
// decision path. The journal skip is a branch, not a marshal.
func TestJournalZeroAllocsOnAcceptFastPath(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop puts; alloc counts are meaningless")
	}
	dir := t.TempDir()
	srv := journaledServer(t, dir, "")
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	putStream(t, ts, "hot", trainValues(t, "timestamp_us", 100, 3))
	stream, ok := srv.Registry().Get("hot")
	if !ok {
		t.Fatal("stream not registered")
	}

	vals := trainValues(t, "timestamp_us", 200, 7)
	batch := make([][]byte, len(vals))
	for i, v := range vals {
		batch[i] = []byte(v)
	}
	ctx := context.Background()
	// Warm past the monitor window so the verdict ring stops growing,
	// and past the first-batch transition so nothing journals.
	for i := 0; i < 70; i++ {
		dec, err := srv.Monitor().CheckBytes(stream, batch)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && (dec.Verdict.Action != monitor.Accept || dec.Transition) {
			t.Fatalf("warm batch %d not a steady accept: %+v", i, dec.Verdict)
		}
		srv.journalDecision(ctx, "hot", dec)
	}
	journaled := srv.Journal().LastID()

	allocs := testing.AllocsPerRun(20, func() {
		dec, err := srv.Monitor().CheckBytes(stream, batch)
		if err != nil {
			t.Fatal(err)
		}
		srv.journalDecision(ctx, "hot", dec)
	})
	if allocs != 0 {
		t.Errorf("journal-enabled accept fast path: %.1f allocs per batch, want 0", allocs)
	}
	if got := srv.Journal().LastID(); got != journaled {
		t.Errorf("steady accepts were journaled: LastID %d -> %d", journaled, got)
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// Monitor returns the server's continuous-validation engine.
func (s *Server) Monitor() *monitor.Engine { return s.mon }
