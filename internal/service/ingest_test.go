package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"autovalidate/internal/core"
)

// ingestServer returns a server over a private clone of the fixture
// index (ingest swaps copy-on-write, but the clone keeps test intent
// obvious).
func ingestServer(t *testing.T) *Server {
	t.Helper()
	opt := core.DefaultOptions()
	opt.M = 5
	srv, err := New(Config{
		Index:     testIndex(t).Clone(),
		Options:   &opt,
		CacheSize: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func ingestBatch(domain string, n int, seed int64, t *testing.T) IngestRequest {
	t.Helper()
	return IngestRequest{Tables: []IngestTable{{
		Name: fmt.Sprintf("feed-%s-%d", domain, seed),
		Columns: []IngestColumn{
			{Name: "a", Values: trainValues(t, domain, n, seed)},
			{Name: "b", Values: trainValues(t, "locale", n, seed+1)},
		},
	}}}
}

func TestIngestGrowsIndex(t *testing.T) {
	srv := ingestServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	before := srv.CurrentStats()
	var resp IngestResponse
	if code := post(t, ts, "/ingest", ingestBatch("timestamp_us", 60, 3, t), &resp); code != http.StatusOK {
		t.Fatalf("/ingest: status %d", code)
	}
	if resp.ColumnsIngested != 2 {
		t.Errorf("columns_ingested = %d, want 2", resp.ColumnsIngested)
	}
	if resp.Generation != before.IndexGeneration+1 {
		t.Errorf("generation %d, want %d", resp.Generation, before.IndexGeneration+1)
	}
	if resp.IndexColumns != before.IndexColumns+2 {
		t.Errorf("index_columns %d, want %d", resp.IndexColumns, before.IndexColumns+2)
	}
	after := srv.CurrentStats()
	if after.Ingests != before.Ingests+1 || after.IndexGeneration != resp.Generation {
		t.Errorf("stats not updated: %+v", after)
	}
}

// cacheMetrics scrapes the rule-cache samples from /metrics and checks
// /stats reports the same numbers.
func cacheMetrics(t *testing.T, ts *httptest.Server) (hits, misses, evictions, entries float64) {
	t.Helper()
	body := scrape(t, ts)
	hits = metricValue(t, body, "autovalidate_cache_hits_total")
	misses = metricValue(t, body, "autovalidate_cache_misses_total")
	evictions = metricValue(t, body, "autovalidate_cache_evictions_total")
	entries = metricValue(t, body, "autovalidate_cache_entries")
	var st Stats
	if code := getJSON(t, ts, "/stats", &st); code != http.StatusOK {
		t.Fatalf("/stats: status %d", code)
	}
	if float64(st.CacheHits) != hits || float64(st.CacheMisses) != misses ||
		float64(st.CacheEvictions) != evictions || float64(st.CacheSize) != entries {
		t.Errorf("/stats cache %+v disagrees with /metrics hits=%g misses=%g evictions=%g entries=%g",
			st, hits, misses, evictions, entries)
	}
	return hits, misses, evictions, entries
}

// TestIngestInvalidatesCache verifies an ingest publishes the new index
// with an empty rule cache: a fingerprint minted before the ingest must
// miss afterwards (changed pattern evidence can alter which pattern FMDV
// selects), the entries gauge drops to zero, and the hit, miss and
// eviction counters carry on across the publish rather than restart.
func TestIngestInvalidatesCache(t *testing.T) {
	opt := core.DefaultOptions()
	opt.M = 5
	srv, err := New(Config{Index: testIndex(t).Clone(), Options: &opt, CacheSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	train := trainValues(t, "date_mdy_text", 100, 3)

	// Three columns through a 2-entry cache, the last one twice: every
	// counter is non-zero before the ingest.
	for i, d := range []string{"locale", "guid"} {
		if code := post(t, ts, "/infer", InferRequest{Values: trainValues(t, d, 60, int64(50+i))}, nil); code != http.StatusOK {
			t.Fatalf("/infer %s: status %d", d, code)
		}
	}
	var inf InferResponse
	for range 2 {
		if code := post(t, ts, "/infer", InferRequest{Values: train}, &inf); code != http.StatusOK {
			t.Fatalf("/infer: status %d", code)
		}
	}
	hits, misses, evictions, entries := cacheMetrics(t, ts)
	if hits != 1 || misses != 3 || evictions != 1 || entries != 2 {
		t.Fatalf("before ingest: hits=%g misses=%g evictions=%g entries=%g, want 1 3 1 2",
			hits, misses, evictions, entries)
	}

	if code := post(t, ts, "/ingest", ingestBatch("date_mdy_text", 50, 9, t), nil); code != http.StatusOK {
		t.Fatalf("/ingest: status %d", code)
	}
	h, m, e, n := cacheMetrics(t, ts)
	if h != hits || m != misses || e != evictions || n != 0 {
		t.Errorf("after ingest: hits=%g misses=%g evictions=%g entries=%g, want %g %g %g 0",
			h, m, e, n, hits, misses, evictions)
	}
	var out errorResponse
	if code := post(t, ts, "/validate", ValidateRequest{Fingerprint: inf.Fingerprint, Values: train}, &out); code != http.StatusNotFound {
		t.Fatalf("pre-ingest fingerprint after ingest: status %d, want 404", code)
	}
	// Re-inferring the same column works and repopulates the cache.
	var again InferResponse
	if code := post(t, ts, "/infer", InferRequest{Values: train}, &again); code != http.StatusOK || again.Cached {
		t.Fatalf("post-ingest re-infer: status %d cached=%v", code, again.Cached)
	}
	// The 404 and the re-infer were two more misses; nothing went back.
	if h, m, e, n := cacheMetrics(t, ts); h != hits || m != misses+2 || e != evictions || n != 1 {
		t.Errorf("after re-infer: hits=%g misses=%g evictions=%g entries=%g, want %g %g %g 1",
			h, m, e, n, hits, misses+2, evictions)
	}
}

// TestIngestErrorPaths drives the malformed-request table: bad JSON and
// structurally empty batches. None may mutate the index. (An oversized
// body is TestDeclaredOversizeAnswersBeforeTheBodyIsSent's /ingest row.)
func TestIngestErrorPaths(t *testing.T) {
	srv := ingestServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	before := srv.CurrentStats()

	cases := []struct {
		name string
		raw  string // raw body; empty means marshal req
		req  any
		want int
	}{
		{name: "garbage body", raw: "{nope", want: http.StatusBadRequest},
		{name: "empty object", raw: "{}", want: http.StatusBadRequest},
		{name: "no tables", req: IngestRequest{}, want: http.StatusBadRequest},
		{name: "table without columns", req: IngestRequest{Tables: []IngestTable{{Name: "t"}}}, want: http.StatusBadRequest},
		{name: "column without values", req: IngestRequest{Tables: []IngestTable{{
			Name: "t", Columns: []IngestColumn{{Name: "c"}},
		}}}, want: http.StatusBadRequest},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var code int
			if c.raw != "" {
				resp, err := http.Post(ts.URL+"/ingest", "application/json", bytes.NewReader([]byte(c.raw)))
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				code = resp.StatusCode
			} else {
				var out errorResponse
				code = post(t, ts, "/ingest", c.req, &out)
				if out.Error == "" {
					t.Error("error body should explain the rejection")
				}
			}
			if code != c.want {
				t.Errorf("status %d, want %d", code, c.want)
			}
		})
	}
	after := srv.CurrentStats()
	if after.IndexGeneration != before.IndexGeneration || after.IndexColumns != before.IndexColumns || after.Ingests != 0 {
		t.Errorf("rejected requests mutated the index: %+v -> %+v", before, after)
	}
}

// TestReadOnlyDisablesIngest verifies a read-only server has no /ingest
// route at all.
func TestReadOnlyDisablesIngest(t *testing.T) {
	opt := core.DefaultOptions()
	opt.M = 5
	srv, err := New(Config{Index: testIndex(t), Options: &opt, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if code := post(t, ts, "/ingest", ingestBatch("locale", 20, 3, t), nil); code != http.StatusNotFound {
		t.Errorf("/ingest on read-only server: status %d, want 404", code)
	}
	if code := post(t, ts, "/infer", InferRequest{Values: trainValues(t, "locale", 50, 3)}, nil); code != http.StatusOK {
		t.Errorf("read-only server should still infer: status %d", code)
	}
}

// TestConcurrentIngestAndValidate hammers /validate (train-and-validate,
// exercising the rule cache both ways) while a writer streams ingest
// batches. Run under -race this is the atomic-swap regression test:
// every request must succeed against a coherent index snapshot, and the
// final generation must count every batch.
func TestConcurrentIngestAndValidate(t *testing.T) {
	srv := ingestServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const ingests = 6
	domains := []string{"timestamp_us", "date_mdy_text", "locale"}
	stop := make(chan struct{})
	errc := make(chan error, 64)

	// Request bodies are marshaled up front: the reader goroutines must
	// not touch testing.T helpers that can call FailNow.
	bodies := make([][]byte, 4)
	for r := range bodies {
		domain := domains[r%len(domains)]
		body, err := json.Marshal(ValidateRequest{
			Train:  trainValues(t, domain, 80, int64(3+r)),
			Values: trainValues(t, domain, 120, int64(17+r)),
		})
		if err != nil {
			t.Fatal(err)
		}
		bodies[r] = body
	}
	var readers sync.WaitGroup
	for r := 0; r < len(bodies); r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/validate", "application/json", bytes.NewReader(bodies[r]))
				if err != nil {
					errc <- fmt.Errorf("reader %d iteration %d: %w", r, i, err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusUnprocessableEntity {
					errc <- fmt.Errorf("reader %d iteration %d: status %d", r, i, resp.StatusCode)
					return
				}
			}
		}(r)
	}

	for i := 0; i < ingests; i++ {
		var resp IngestResponse
		if code := post(t, ts, "/ingest", ingestBatch(domains[i%len(domains)], 40, int64(100+i), t), &resp); code != http.StatusOK {
			t.Errorf("ingest %d: status %d", i, code)
		}
	}
	close(stop)
	readers.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	if gen := srv.CurrentStats().IndexGeneration; gen != ingests {
		t.Errorf("final generation %d, want %d", gen, ingests)
	}
}
