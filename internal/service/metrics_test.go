package service

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"autovalidate/internal/core"
	"autovalidate/internal/obs/promtest"
)

// scrape fetches /metrics and returns the body.
func scrape(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics content type %q, want text/plain", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// metricValue extracts one sample's value from the exposition text.
func metricValue(t *testing.T, body, sample string) float64 {
	t.Helper()
	re := regexp.MustCompile("(?m)^" + regexp.QuoteMeta(sample) + " ([0-9eE.+-]+)$")
	m := re.FindStringSubmatch(body)
	if m == nil {
		t.Fatalf("sample %q not found in:\n%s", sample, body)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("sample %q value %q: %v", sample, m[1], err)
	}
	return v
}

func TestMetricsEndpoint(t *testing.T) {
	opt := core.DefaultOptions()
	opt.M = 5
	srv, err := New(Config{Index: testIndex(t).Clone(), Options: &opt, CacheSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Three distinct inferences through a 2-entry cache: 3 misses, then
	// 1 hit on a still-resident rule, and at least one eviction.
	domains := []string{"timestamp_us", "locale", "guid"}
	for i, d := range domains {
		req := InferRequest{Values: trainValues(t, d, 60, int64(40+i))}
		if code := post(t, ts, "/infer", req, nil); code != http.StatusOK {
			t.Fatalf("/infer %s: status %d", d, code)
		}
	}
	if code := post(t, ts, "/infer", InferRequest{Values: trainValues(t, "guid", 60, 42)}, nil); code != http.StatusOK {
		t.Fatal("repeat infer failed")
	}

	body := scrape(t, ts)
	// The three cold inferences ran vertical cuts: segments were solved,
	// the merged tokenization met some again, and candidates were scored
	// against the index. The counters are process-wide, so only their
	// order is asserted.
	solved := metricValue(t, body, `autovalidate_infer_segments_total{memo="miss"}`)
	recalled := metricValue(t, body, `autovalidate_infer_segments_total{memo="hit"}`)
	cands := metricValue(t, body, "autovalidate_infer_candidates_total")
	known := metricValue(t, body, "autovalidate_infer_index_hits_total")
	if solved < 1 || recalled < 1 || known < 1 || cands < known {
		t.Errorf("inference counters: segments miss=%g hit=%g, candidates=%g, index hits=%g", solved, recalled, cands, known)
	}
	if hits := metricValue(t, body, "autovalidate_cache_hits_total"); hits != 1 {
		t.Errorf("cache hits = %g, want 1", hits)
	}
	if misses := metricValue(t, body, "autovalidate_cache_misses_total"); misses != 3 {
		t.Errorf("cache misses = %g, want 3", misses)
	}
	if ev := metricValue(t, body, "autovalidate_cache_evictions_total"); ev < 1 {
		t.Errorf("cache evictions = %g, want >= 1", ev)
	}
	if gen := metricValue(t, body, "autovalidate_index_generation"); gen != 0 {
		t.Errorf("index generation = %g, want 0", gen)
	}
	if n := metricValue(t, body, `autovalidate_http_requests_total{endpoint="POST /infer"}`); n != 4 {
		t.Errorf("POST /infer requests = %g, want 4", n)
	}
	// Scrapes count themselves (the counter bumps before rendering), so
	// the second scrape reports 2.
	body = scrape(t, ts)
	if n := metricValue(t, body, `autovalidate_http_requests_total{endpoint="GET /metrics"}`); n != 2 {
		t.Errorf("GET /metrics requests = %g, want 2", n)
	}

	// Ingest and stream registration move the gauges.
	var ing IngestResponse
	if code := post(t, ts, "/ingest", ingestBatch("locale", 50, 31, t), &ing); code != http.StatusOK {
		t.Fatalf("/ingest: status %d", code)
	}
	if code := do(t, ts, "PUT", "/streams/m", StreamPutRequest{Train: trainValues(t, "guid", 80, 9)}, nil); code != http.StatusOK {
		t.Fatalf("PUT stream: status %d", code)
	}
	body = scrape(t, ts)
	if gen := metricValue(t, body, "autovalidate_index_generation"); gen != 1 {
		t.Errorf("post-ingest generation = %g, want 1", gen)
	}
	if n := metricValue(t, body, "autovalidate_ingests_total"); n != 1 {
		t.Errorf("ingests = %g, want 1", n)
	}
	if n := metricValue(t, body, "autovalidate_streams"); n != 1 {
		t.Errorf("streams = %g, want 1", n)
	}

	// Every declared route appears with a counter.
	for _, route := range routes {
		if !strings.Contains(body, `endpoint="`+route+`"`) {
			t.Errorf("route %q missing from /metrics", route)
		}
	}
}

// TestEngineCounterCountsBothBodyForms: every validated value runs a
// compiled program, so autovalidate_compiled_values_total moves by the
// batch size whether the values arrived in a JSON envelope or as a
// column body, on /validate and on /streams/{name}/check alike — and
// not at all for a request that was refused. (At the parent only the
// columnar branches counted.)
func TestEngineCounterCountsBothBodyForms(t *testing.T) {
	srv := streamServer(t, "")
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	putStream(t, ts, "feed.guid", trainValues(t, "guid", 80, 9))
	var inf InferResponse
	if code := post(t, ts, "/infer", InferRequest{Values: trainValues(t, "guid", 80, 9)}, &inf); code != http.StatusOK {
		t.Fatalf("/infer: status %d", code)
	}

	const sample = `autovalidate_compiled_values_total{engine="dfa"}`
	batch := trainValues(t, "guid", 50, 10)
	counted := metricValue(t, scrape(t, ts), sample)
	for _, req := range []struct {
		name string
		send func() int
		want float64
	}{
		{"JSON check", func() int {
			return post(t, ts, "/streams/feed.guid/check", StreamCheckRequest{Values: batch}, nil)
		}, 50},
		{"CSV check", func() int {
			return postRaw(t, ts, "/streams/feed.guid/check", "text/csv", string(csvBody(batch)), nil)
		}, 50},
		{"JSON validate", func() int {
			return post(t, ts, "/validate", ValidateRequest{Fingerprint: inf.Fingerprint, Values: batch}, nil)
		}, 50},
		{"NDJSON validate", func() int {
			return postRaw(t, ts, "/validate?fingerprint="+inf.Fingerprint, "application/x-ndjson", string(ndjsonBody(batch)), nil)
		}, 50},
		{"JSON check of an unknown stream", func() int {
			post(t, ts, "/streams/nobody/check", StreamCheckRequest{Values: batch}, nil)
			return http.StatusOK
		}, 0},
	} {
		if code := req.send(); code != http.StatusOK {
			t.Fatalf("%s: status %d", req.name, code)
		}
		body := scrape(t, ts)
		if errs := promtest.Lint(body); len(errs) != 0 {
			t.Fatalf("%s: exposition lint: %v", req.name, errs)
		}
		now := metricValue(t, body, sample)
		if now-counted != req.want {
			t.Errorf("%s moved %s by %g, want %g", req.name, sample, now-counted, req.want)
		}
		counted = now
	}
	if n := metricValue(t, scrape(t, ts), `autovalidate_compiled_values_total{engine="nfa"}`); n != 0 {
		t.Errorf("pike-VM counter = %g, want 0: both rules lower to a DFA", n)
	}
}

// TestStreamNameMustBeUTF8: a registry file spells a name that is not
// valid UTF-8 with U+FFFD, so it would reload under another name (and two
// such names as one, failing the load), and /metrics would show two such
// streams as one series. PUT refuses the name with a 400 before inferring
// anything — an infeasible column gets the 400, not the 422 — and the
// stream stays unknown.
func TestStreamNameMustBeUTF8(t *testing.T) {
	srv := streamServer(t, filepath.Join(t.TempDir(), "rules.avr"))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	train := trainValues(t, "guid", 80, 9)
	for _, name := range []string{"a%FF", "a%FE"} {
		var out errorResponse
		if code := do(t, ts, "PUT", "/streams/"+name, StreamPutRequest{Train: train}, &out); code != http.StatusBadRequest || !strings.Contains(out.Error, "UTF-8") {
			t.Errorf("PUT /streams/%s: status %d (%s), want 400 naming UTF-8", name, code, out.Error)
		}
		if code := post(t, ts, "/streams/"+name+"/check", StreamCheckRequest{Values: train[:40]}, nil); code != http.StatusNotFound {
			t.Errorf("check /streams/%s: status %d, want 404", name, code)
		}
	}
	if errs := promtest.Lint(scrape(t, ts)); len(errs) != 0 {
		t.Errorf("exposition lint: %v", errs)
	}
	free := make([]string, 50)
	for i := range free {
		free[i] = fmt.Sprintf("utterly unique free text value number %d with no shared shape %d", i, i*i)
	}
	req := StreamPutRequest{Train: free, RuleParams: RuleParams{Strategy: "FMDV"}}
	if code := do(t, ts, "PUT", "/streams/a%FF", req, nil); code != http.StatusBadRequest {
		t.Errorf("PUT of an infeasible column under a bad name: status %d, want 400", code)
	}
	if code := do(t, ts, "PUT", "/streams/a", req, nil); code != http.StatusUnprocessableEntity {
		t.Errorf("PUT of an infeasible column under a good name: status %d, want 422", code)
	}
	if n := srv.Registry().Len(); n != 0 {
		t.Errorf("registry holds %d streams, want 0", n)
	}
}

// A stream may be named with any valid UTF-8 a URL can carry; /metrics
// spells each name as the text format defines a label value — only
// backslash, double quote and line feed escaped — so one odd name cannot
// make the whole exposition unparseable. (A name that is not valid UTF-8
// is refused at registration: TestStreamNameMustBeUTF8.)
func TestMetricsSpellStreamNamesAsTheFormatDoes(t *testing.T) {
	ts := httptest.NewServer(testServer(t, 16).Handler())
	defer ts.Close()
	train := trainValues(t, "guid", 80, 9)
	for _, c := range []struct{ name, spelled string }{
		{"tab\tname", "tab\tname"},
		{`quote"name`, `quote\"name`},
		{`back\slash`, `back\\slash`},
		{"new\nline", `new\nline`},
		{"line\u2028sep", "line\u2028sep"},
	} {
		path := "/streams/" + url.PathEscape(c.name)
		putStream(t, ts, url.PathEscape(c.name), train)
		if code := post(t, ts, path+"/check", StreamCheckRequest{Values: trainValues(t, "guid", 40, 10)}, nil); code != http.StatusOK {
			t.Fatalf("%q: check status %d", c.name, code)
		}
		body := scrape(t, ts)
		if errs := promtest.Lint(body); len(errs) != 0 {
			t.Fatalf("%q: exposition lint: %v", c.name, errs)
		}
		if want := `autovalidate_stream_state{stream="` + c.spelled + `",state="accept"} 1`; !strings.Contains(body, want) {
			t.Errorf("%q: no series %q in\n%s", c.name, want, body)
		}
	}
}
