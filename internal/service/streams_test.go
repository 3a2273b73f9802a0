package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"autovalidate/internal/core"
	"autovalidate/internal/monitor"
	"autovalidate/internal/registry"
)

// streamServer builds a mutable server over a private index clone, with
// an optional registry path for persistence assertions.
func streamServer(t *testing.T, regPath string) *Server {
	t.Helper()
	opt := core.DefaultOptions()
	opt.M = 5
	srv, err := New(Config{
		Index:        testIndex(t).Clone(),
		Options:      &opt,
		CacheSize:    64,
		RegistryPath: regPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// do sends a JSON request with an arbitrary method.
func do(t *testing.T, ts *httptest.Server, method, path string, body, out any) int {
	t.Helper()
	var req *http.Request
	var err error
	if body != nil {
		data, merr := json.Marshal(body)
		if merr != nil {
			t.Fatal(merr)
		}
		req, err = http.NewRequest(method, ts.URL+path, bytes.NewReader(data))
	} else {
		req, err = http.NewRequest(method, ts.URL+path, nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, path, err)
		}
	}
	return resp.StatusCode
}

func TestStreamLifecycle(t *testing.T) {
	regPath := filepath.Join(t.TempDir(), "rules.avr")
	srv := streamServer(t, regPath)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	train := trainValues(t, "timestamp_us", 120, 5)

	// Register.
	var info StreamInfo
	if code := do(t, ts, "PUT", "/streams/feed.ts", StreamPutRequest{Train: train}, &info); code != http.StatusOK {
		t.Fatalf("PUT: status %d", code)
	}
	if info.Name != "feed.ts" || info.Version != 1 || info.Rule == nil || info.Stale {
		t.Fatalf("PUT info = %+v", info)
	}

	// The registry file exists and holds the stream.
	loaded, err := registry.Load(regPath)
	if err != nil {
		t.Fatalf("registry not persisted: %v", err)
	}
	if loaded.Len() != 1 {
		t.Fatalf("persisted registry has %d streams, want 1", loaded.Len())
	}

	// Get, including an explicit version and a missing one.
	if code := do(t, ts, "GET", "/streams/feed.ts", nil, &info); code != http.StatusOK || info.Version != 1 {
		t.Fatalf("GET: status %d info %+v", code, info)
	}
	if code := do(t, ts, "GET", "/streams/feed.ts?version=1", nil, &info); code != http.StatusOK {
		t.Fatalf("GET v1: status %d", code)
	}
	if code := do(t, ts, "GET", "/streams/feed.ts?version=9", nil, nil); code != http.StatusNotFound {
		t.Fatalf("GET v9: status %d, want 404", code)
	}
	if code := do(t, ts, "GET", "/streams/nope", nil, nil); code != http.StatusNotFound {
		t.Fatalf("GET unknown: status %d, want 404", code)
	}

	// List.
	var list StreamListResponse
	if code := do(t, ts, "GET", "/streams", nil, &list); code != http.StatusOK || len(list.Streams) != 1 {
		t.Fatalf("GET /streams: status %d, %d streams", code, len(list.Streams))
	}

	// A clean batch accepts.
	var check StreamCheckResponse
	clean := trainValues(t, "timestamp_us", 100, 99)
	if code := do(t, ts, "POST", "/streams/feed.ts/check", StreamCheckRequest{Values: clean}, &check); code != http.StatusOK {
		t.Fatalf("check: status %d", code)
	}
	if check.Decision.Verdict.ActionName != "accept" {
		t.Errorf("clean batch action = %s, want accept", check.Decision.Verdict.ActionName)
	}

	// History reflects the batch.
	var hist monitor.History
	if code := do(t, ts, "GET", "/streams/feed.ts/history", nil, &hist); code != http.StatusOK {
		t.Fatalf("history: status %d", code)
	}
	if hist.Batches != 1 || len(hist.Window) != 1 {
		t.Errorf("history = %+v, want one batch", hist)
	}

	// Delete.
	if code := do(t, ts, "DELETE", "/streams/feed.ts", nil, nil); code != http.StatusOK {
		t.Fatalf("DELETE: status %d", code)
	}
	if code := do(t, ts, "DELETE", "/streams/feed.ts", nil, nil); code != http.StatusNotFound {
		t.Fatalf("second DELETE: status %d, want 404", code)
	}
	if code := do(t, ts, "GET", "/streams/feed.ts/history", nil, nil); code != http.StatusNotFound {
		t.Fatalf("history after delete: status %d, want 404", code)
	}
}

func TestStreamCheckDriftEscalatesAndReinfers(t *testing.T) {
	srv := streamServer(t, "")
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	train := trainValues(t, "timestamp_us", 120, 5)
	var info StreamInfo
	if code := do(t, ts, "PUT", "/streams/drift", StreamPutRequest{Train: train}, &info); code != http.StatusOK {
		t.Fatalf("PUT: status %d", code)
	}

	// Feed batches from a different domain: alarm → quarantine →
	// re-inference, per the default policy ladder.
	bad := trainValues(t, "locale", 100, 7)
	var last StreamCheckResponse
	actions := []string{}
	for i := 0; i < 8; i++ {
		if code := do(t, ts, "POST", "/streams/drift/check", StreamCheckRequest{Values: bad}, &last); code != http.StatusOK {
			t.Fatalf("check %d: status %d", i, code)
		}
		actions = append(actions, last.Decision.Verdict.ActionName)
		if last.Reinferred {
			break
		}
	}
	joined := strings.Join(actions, ",")
	if !strings.Contains(joined, "alarm") || !strings.Contains(joined, "quarantine") {
		t.Errorf("escalation ladder missing stages: %s", joined)
	}
	if !last.Reinferred {
		t.Fatalf("drift never re-inferred; actions: %s (last: %+v)", joined, last)
	}
	if last.NewVersion != 2 {
		t.Errorf("re-inference bumped to version %d, want 2", last.NewVersion)
	}

	// The re-learned rule now accepts the new normal.
	var after StreamCheckResponse
	if code := do(t, ts, "POST", "/streams/drift/check", StreamCheckRequest{Values: bad}, &after); code != http.StatusOK {
		t.Fatalf("post-reinfer check: status %d", code)
	}
	if after.Version != 2 || after.Decision.Verdict.ActionName != "accept" {
		t.Errorf("post-reinfer: version %d action %s, want 2/accept", after.Version, after.Decision.Verdict.ActionName)
	}
	if n := srv.Registry().Versions("drift"); n != 2 {
		t.Errorf("registry holds %d versions, want 2 (old version stays readable)", n)
	}
}

func TestStreamPutErrors(t *testing.T) {
	srv := streamServer(t, "")
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if code := do(t, ts, "PUT", "/streams/x", StreamPutRequest{}, nil); code != http.StatusBadRequest {
		t.Errorf("empty train: status %d, want 400", code)
	}
	req := StreamPutRequest{Train: trainValues(t, "timestamp_us", 50, 5)}
	req.Strategy = "FMDV-XX"
	if code := do(t, ts, "PUT", "/streams/x", req, nil); code != http.StatusBadRequest {
		t.Errorf("bad strategy: status %d, want 400", code)
	}
	if code := do(t, ts, "POST", "/streams/x/check", StreamCheckRequest{Values: []string{"a"}}, nil); code != http.StatusNotFound {
		t.Errorf("check unregistered: status %d, want 404", code)
	}
	if code := do(t, ts, "POST", "/streams/x/check", StreamCheckRequest{}, nil); code != http.StatusBadRequest {
		t.Errorf("check empty values: status %d, want 400", code)
	}
}

// r, m and theta from a request body are held to their domains on every
// route that infers: θ = 1 used to cut all but one shape group and
// return a rule with every other training value "tolerated".
func TestRuleParamsOutOfRange(t *testing.T) {
	ts := httptest.NewServer(streamServer(t, "").Handler())
	defer ts.Close()
	train := trainValues(t, "timestamp_us", 50, 5)
	f := func(v float64) *float64 { return &v }
	n := func(v int) *int { return &v }
	for _, tc := range []struct {
		name string
		p    RuleParams
		want int
	}{
		{"defaults", RuleParams{}, http.StatusOK},
		{"bounds", RuleParams{R: f(1), M: n(0), Theta: f(0)}, http.StatusOK},
		{"inside", RuleParams{R: f(0.05), M: n(5), Theta: f(0.99)}, http.StatusOK},
		{"r zero", RuleParams{R: f(0)}, http.StatusBadRequest},
		{"r negative", RuleParams{R: f(-0.1)}, http.StatusBadRequest},
		{"r above one", RuleParams{R: f(1.5)}, http.StatusBadRequest},
		{"theta one", RuleParams{Theta: f(1)}, http.StatusBadRequest},
		{"theta above one", RuleParams{Theta: f(7)}, http.StatusBadRequest},
		{"theta negative", RuleParams{Theta: f(-0.01)}, http.StatusBadRequest},
		{"m negative", RuleParams{M: n(-1)}, http.StatusBadRequest},
	} {
		if code := do(t, ts, "POST", "/infer", InferRequest{Values: train, RuleParams: tc.p}, nil); code != tc.want {
			t.Errorf("%s: POST /infer status %d, want %d", tc.name, code, tc.want)
		}
		if code := do(t, ts, "POST", "/validate", ValidateRequest{Train: train, Values: train, RuleParams: tc.p}, nil); code != tc.want {
			t.Errorf("%s: POST /validate status %d, want %d", tc.name, code, tc.want)
		}
		if code := do(t, ts, "PUT", "/streams/ranged", StreamPutRequest{Train: train, RuleParams: tc.p}, nil); code != tc.want {
			t.Errorf("%s: PUT /streams/ranged status %d, want %d", tc.name, code, tc.want)
		}
	}
}

func TestReadOnlyDisablesStreamMutation(t *testing.T) {
	opt := core.DefaultOptions()
	opt.M = 5
	srv, err := New(Config{Index: testIndex(t), Options: &opt, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := StreamPutRequest{Train: trainValues(t, "timestamp_us", 50, 5)}
	if code := do(t, ts, "PUT", "/streams/x", req, nil); code == http.StatusOK {
		t.Error("read-only server accepted a stream registration")
	}
	if code := do(t, ts, "GET", "/streams", nil, nil); code != http.StatusOK {
		t.Errorf("read-only GET /streams: status %d", code)
	}
}

// TestIngestInvalidatesStreams: an ingest that advances the index
// generation must mark existing stream rules stale, and a subsequent
// drifting batch must escalate straight to re-inference.
func TestIngestInvalidatesStreams(t *testing.T) {
	regPath := filepath.Join(t.TempDir(), "rules.avr")
	srv := streamServer(t, regPath)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	train := trainValues(t, "timestamp_us", 120, 5)
	if code := do(t, ts, "PUT", "/streams/s", StreamPutRequest{Train: train}, nil); code != http.StatusOK {
		t.Fatalf("PUT: status %d", code)
	}

	var ing IngestResponse
	if code := do(t, ts, "POST", "/ingest", ingestBatch("locale", 60, 11, t), &ing); code != http.StatusOK {
		t.Fatalf("/ingest: status %d", code)
	}
	if ing.StreamsInvalidated != 1 {
		t.Errorf("streams_invalidated = %d, want 1", ing.StreamsInvalidated)
	}
	var info StreamInfo
	if code := do(t, ts, "GET", "/streams/s", nil, &info); code != http.StatusOK || !info.Stale {
		t.Fatalf("stream after ingest: status %d info %+v, want stale", code, info)
	}
	// Staleness survives persistence.
	loaded, err := registry.Load(regPath)
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := loaded.Get("s"); !s.Stale {
		t.Error("persisted registry lost the stale flag")
	}

	// First drifting batch on the stale rule re-infers immediately
	// (the monitor always escalates a stale rule's alarm to Reinfer).
	bad := trainValues(t, "locale", 100, 7)
	var check StreamCheckResponse
	if code := do(t, ts, "POST", "/streams/s/check", StreamCheckRequest{Values: bad}, &check); code != http.StatusOK {
		t.Fatalf("check: status %d", code)
	}
	if check.Decision.Verdict.ActionName != "reinfer" || !check.Reinferred {
		t.Errorf("stale drift: action %s reinferred %v, want reinfer/true",
			check.Decision.Verdict.ActionName, check.Reinferred)
	}
	if info, _ := srv.Registry().Get("s"); info.Stale || info.Version != 2 {
		t.Errorf("after re-inference: %+v, want fresh version 2", info)
	}
}

// TestStreamRegistrationRacesIngest is the satellite's concurrency
// test: stream PUTs, checks, and /ingest-triggered invalidation race;
// run under -race, and every surviving stream must end either fresh at
// the final generation or stale — never fresh at an old generation.
func TestStreamRegistrationRacesIngest(t *testing.T) {
	srv := streamServer(t, filepath.Join(t.TempDir(), "rules.avr"))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	train := trainValues(t, "timestamp_us", 80, 5)
	batch := trainValues(t, "timestamp_us", 60, 55)

	const writers, ingests = 4, 3
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				name := fmt.Sprintf("s%d", w)
				if code := do(t, ts, "PUT", "/streams/"+name, StreamPutRequest{Train: train}, nil); code != http.StatusOK {
					t.Errorf("PUT %s: status %d", name, code)
					return
				}
				do(t, ts, "POST", "/streams/"+name+"/check", StreamCheckRequest{Values: batch}, nil)
				do(t, ts, "GET", "/streams/"+name+"/history", nil, nil)
			}
		}(w)
	}
	for g := 0; g < ingests; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var resp IngestResponse
			if code := post(t, ts, "/ingest", ingestBatch("locale", 40, int64(20+g), t), &resp); code != http.StatusOK {
				t.Errorf("ingest %d: status %d", g, code)
			}
		}(g)
	}
	wg.Wait()

	finalGen := srv.Index().Generation
	if finalGen != ingests {
		t.Fatalf("final generation = %d, want %d", finalGen, ingests)
	}
	for _, name := range srv.Registry().Names() {
		s, _ := srv.Registry().Get(name)
		if !s.Stale && s.IndexGeneration != finalGen {
			t.Errorf("stream %s: fresh at generation %d but index is at %d (missed invalidation)",
				name, s.IndexGeneration, finalGen)
		}
	}
}
