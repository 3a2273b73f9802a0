package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"autovalidate/internal/core"
	"autovalidate/internal/corpus"
	"autovalidate/internal/datagen"
	"autovalidate/internal/index"
	"autovalidate/internal/obs"
	"autovalidate/internal/registry"
)

// get fetches a path and returns the status code and body.
func get(t *testing.T, ts *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// columnBatch synthesizes n fresh corpus columns of width values each.
func columnBatch(t *testing.T, domain string, n, width int) []*corpus.Column {
	t.Helper()
	cols := make([]*corpus.Column, n)
	for i := range cols {
		cols[i] = corpus.NewColumn("batch", domain, trainValues(t, domain, width, int64(100+i)))
	}
	return cols
}

// TestReadyzGatesOnSnapshot checks the readiness lifecycle of a
// follower: 503 before the first snapshot install, 200 after.
func TestReadyzGatesOnSnapshot(t *testing.T) {
	opt := core.DefaultOptions()
	opt.M = 5
	srv, err := New(Config{
		Index:        index.New(), // empty placeholder, as a follower boots
		Options:      &opt,
		StartUnready: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if code, _ := get(t, ts, "/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before snapshot = %d, want 503", code)
	}
	// /healthz stays a liveness probe: 200 even while unready.
	if code, _ := get(t, ts, "/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz before snapshot = %d, want 200", code)
	}

	srv.InstallSnapshot(testIndex(t).Clone(), registry.New())
	if code, body := get(t, ts, "/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz after snapshot = %d (%s), want 200", code, body)
	}
	if !srv.Ready() {
		t.Fatal("Ready() false after snapshot install")
	}
}

// TestReplicateDeltaAdvancesGeneration drives the follower-side apply
// path: a delta built against the served generation applies and advances
// it; replaying it is skipped as already covered, and a delta that
// skips a generation is rejected untouched.
func TestReplicateDeltaAdvancesGeneration(t *testing.T) {
	srv := testServer(t, 8)
	base := srv.Index()
	cols := columnBatch(t, "ipv4", 3, 20)

	d := index.BuildDelta(base, cols, index.BuildOptions{})
	if err := srv.ApplyPoll(d.Base+1, []*index.Delta{d}, nil); err != nil {
		t.Fatal(err)
	}
	if g := srv.Generation(); g != base.Generation+1 {
		t.Fatalf("generation after replicate = %d, want %d", g, base.Generation+1)
	}
	// Replaying the same delta is a no-op: the generation covers it.
	if err := srv.ApplyPoll(d.Base+1, []*index.Delta{d}, nil); err != nil || srv.Generation() != base.Generation+1 {
		t.Fatalf("replay: err %v, generation %d", err, srv.Generation())
	}
	// A delta whose base is past the served generation must fail.
	ahead := &index.Delta{Evidence: d.Evidence, Base: base.Generation + 2}
	if err := srv.ApplyPoll(ahead.Base+1, []*index.Delta{ahead}, nil); err == nil {
		t.Fatal("a delta that skips a generation should be rejected")
	}
	if _, deltas := srv.ReplicationCounts(); deltas != 1 {
		t.Fatalf("replicated deltas = %d, want 1", deltas)
	}
}

// TestMetricsHistograms checks /metrics exports per-endpoint latency
// histograms in cumulative Prometheus form after traffic.
func TestMetricsHistograms(t *testing.T) {
	ts := httptest.NewServer(testServer(t, 8).Handler())
	defer ts.Close()
	for i := 0; i < 3; i++ {
		if code, _ := get(t, ts, "/healthz"); code != http.StatusOK {
			t.Fatalf("healthz = %d", code)
		}
	}
	_, body := get(t, ts, "/metrics")
	for _, want := range []string{
		"# TYPE autovalidate_http_request_duration_seconds histogram",
		`autovalidate_http_request_duration_seconds_bucket{endpoint="GET /healthz",le="+Inf"} 3`,
		`autovalidate_http_request_duration_seconds_count{endpoint="GET /healthz"} 3`,
		`autovalidate_http_request_duration_seconds_sum{endpoint="GET /healthz"}`,
		"autovalidate_ready 1",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, body)
		}
	}
	// Buckets must be cumulative: the +Inf bucket equals the count, and
	// no bucket may exceed it — spot-check by parsing the healthz lines.
	if strings.Count(body, `endpoint="GET /healthz",le=`) != len(obs.LatencyBuckets)+1 {
		t.Fatalf("wrong bucket line count for GET /healthz:\n%s", body)
	}
}

// TestSnapshotInstallPublishesTauWithIndex: τ is a property of the
// served index, so a stream registered while a follower installs
// snapshots must persist the τ of the index it was inferred against.
// Snapshots of two indexes with different enumeration widths and
// generations are installed back to back while streams register and
// /infer runs; every registered version's Options.Tau must match its
// IndexGeneration's index. Publishing the index before its τ leaves a
// gap in which a registration pairs the new generation with the old τ.
func TestSnapshotInstallPublishesTauWithIndex(t *testing.T) {
	srv := testServer(t, 64)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	wide := testIndex(t).Clone()
	wide.Generation = 100
	narrowOpt := index.DefaultBuildOptions()
	narrowOpt.Enum.MaxTokens = 6
	narrow := index.Build(datagen.Generate(datagen.Enterprise(12, 5)).Columns(), narrowOpt)
	narrow.Generation = 200
	tauAt := map[uint64]int{
		testIndex(t).Generation: testIndex(t).Enum.MaxTokens,
		wide.Generation:         wide.Enum.MaxTokens,
		narrow.Generation:       narrow.Enum.MaxTokens,
	}

	train := trainValues(t, "timestamp_us", 30, 5)
	put, err := json.Marshal(StreamPutRequest{Train: train})
	if err != nil {
		t.Fatal(err)
	}
	infer, err := json.Marshal(InferRequest{Values: train})
	if err != nil {
		t.Fatal(err)
	}
	send := func(method, path string, body []byte) {
		req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			return
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Error(err)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s %s: status %d", method, path, resp.StatusCode)
		}
	}

	const writers, puts = 3, 20
	done := make(chan struct{})
	var installs sync.WaitGroup
	installs.Add(1)
	go func() {
		defer installs.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			// Each snapshot carries the registry as it stands, as a
			// leader's does, so the streams registered so far stay to be
			// checked.
			var buf bytes.Buffer
			if err := srv.Registry().Encode(&buf); err != nil {
				t.Error(err)
				return
			}
			reg, err := registry.Decode(&buf)
			if err != nil {
				t.Error(err)
				return
			}
			if i%2 == 0 {
				srv.InstallSnapshot(narrow, reg)
			} else {
				srv.InstallSnapshot(wide, reg)
			}
		}
	}()
	var clients sync.WaitGroup
	for w := range writers {
		clients.Add(2)
		go func() {
			defer clients.Done()
			for range puts {
				send(http.MethodPut, fmt.Sprintf("/streams/s%d", w), put)
			}
		}()
		go func() {
			defer clients.Done()
			for range puts {
				send(http.MethodPost, "/infer", infer)
			}
		}()
	}
	clients.Wait()
	close(done)
	installs.Wait()

	for w := range writers {
		name := fmt.Sprintf("s%d", w)
		for v := 1; v <= srv.registry.Versions(name); v++ {
			st, _ := srv.registry.GetVersion(name, v)
			want, ok := tauAt[st.IndexGeneration]
			if !ok {
				t.Fatalf("%s v%d: inferred at unknown generation %d", name, v, st.IndexGeneration)
			}
			if st.Options.Tau != want {
				t.Errorf("%s v%d: generation %d persisted with tau %d, want %d",
					name, v, st.IndexGeneration, st.Options.Tau, want)
			}
		}
	}
}
