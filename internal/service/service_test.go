package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"autovalidate/internal/core"
	"autovalidate/internal/datagen"
	"autovalidate/internal/index"
)

var (
	fixtureOnce sync.Once
	fixtureIdx  *index.Index
)

// testIndex builds one small lake index shared across tests.
func testIndex(t *testing.T) *index.Index {
	t.Helper()
	fixtureOnce.Do(func() {
		c := datagen.Generate(datagen.Enterprise(40, 3))
		fixtureIdx = index.Build(c.Columns(), index.DefaultBuildOptions())
	})
	if fixtureIdx.Size() == 0 {
		t.Fatal("empty fixture index")
	}
	return fixtureIdx
}

// testServer returns a server over the fixture index with m scaled to
// the small lake.
func testServer(t *testing.T, cacheSize int) *Server {
	t.Helper()
	opt := core.DefaultOptions()
	opt.M = 5
	srv, err := New(Config{Index: testIndex(t), Options: &opt, CacheSize: cacheSize})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// post sends a JSON body and decodes a JSON response into out.
func post(t *testing.T, ts *httptest.Server, path string, body, out any) int {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s: decoding response: %v", path, err)
		}
	}
	return resp.StatusCode
}

func trainValues(t *testing.T, domain string, n int, seed int64) []string {
	t.Helper()
	vals, err := datagen.FreshColumn(domain, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return vals
}

func TestInferThenCacheHit(t *testing.T) {
	ts := httptest.NewServer(testServer(t, 16).Handler())
	defer ts.Close()
	train := trainValues(t, "timestamp_us", 100, 3)

	var first InferResponse
	if code := post(t, ts, "/infer", InferRequest{Values: train}, &first); code != http.StatusOK {
		t.Fatalf("first /infer: status %d", code)
	}
	if first.Cached {
		t.Error("first inference cannot be a cache hit")
	}
	if first.Rule == nil || first.Fingerprint == "" {
		t.Fatalf("first response incomplete: %+v", first)
	}

	var second InferResponse
	if code := post(t, ts, "/infer", InferRequest{Values: train}, &second); code != http.StatusOK {
		t.Fatalf("second /infer: status %d", code)
	}
	if !second.Cached {
		t.Error("identical column should hit the rule cache")
	}
	if second.Fingerprint != first.Fingerprint {
		t.Errorf("fingerprints differ: %s vs %s", first.Fingerprint, second.Fingerprint)
	}
	if second.Rule.Pattern.String() != first.Rule.Pattern.String() {
		t.Errorf("cached rule pattern %q != %q", second.Rule.Pattern, first.Rule.Pattern)
	}
}

func TestInferParamsChangeFingerprint(t *testing.T) {
	ts := httptest.NewServer(testServer(t, 16).Handler())
	defer ts.Close()
	train := trainValues(t, "locale", 100, 3)

	var a, b InferResponse
	m1, m2 := 5, 4
	post(t, ts, "/infer", InferRequest{Values: train, RuleParams: RuleParams{M: &m1}}, &a)
	if code := post(t, ts, "/infer", InferRequest{Values: train, RuleParams: RuleParams{M: &m2}}, &b); code != http.StatusOK {
		t.Fatalf("/infer with m=%d: status %d", m2, code)
	}
	if a.Fingerprint == b.Fingerprint {
		t.Error("different m must produce different fingerprints")
	}
	if b.Cached {
		t.Error("changed parameters must not hit the cache")
	}
}

func TestValidateByFingerprint(t *testing.T) {
	ts := httptest.NewServer(testServer(t, 16).Handler())
	defer ts.Close()
	train := trainValues(t, "date_mdy_text", 120, 3)

	var inf InferResponse
	if code := post(t, ts, "/infer", InferRequest{Values: train}, &inf); code != http.StatusOK {
		t.Fatalf("/infer: status %d", code)
	}

	// A clean batch from the same domain passes.
	clean := trainValues(t, "date_mdy_text", 400, 9)
	var ok ValidateResponse
	if code := post(t, ts, "/validate", ValidateRequest{Fingerprint: inf.Fingerprint, Values: clean}, &ok); code != http.StatusOK {
		t.Fatalf("/validate clean: status %d", code)
	}
	if !ok.Cached {
		t.Error("fingerprint validation should report the cached rule")
	}
	if ok.Report.Alarm {
		t.Errorf("clean batch alarmed: %+v", ok.Report)
	}

	// A drifted batch (half the values from a different domain) alarms.
	drift := append(append([]string{}, clean[:200]...), trainValues(t, "locale", 200, 5)...)
	var bad ValidateResponse
	if code := post(t, ts, "/validate", ValidateRequest{Fingerprint: inf.Fingerprint, Values: drift}, &bad); code != http.StatusOK {
		t.Fatalf("/validate drift: status %d", code)
	}
	if !bad.Report.Alarm {
		t.Errorf("drifted batch did not alarm: %+v", bad.Report)
	}
	if bad.Report.NonConforming == 0 {
		t.Error("drifted batch reported zero non-conforming values")
	}
}

func TestValidateWithTrainInfersAndCaches(t *testing.T) {
	srv := testServer(t, 16)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	train := trainValues(t, "timestamp_us", 100, 7)
	batch := trainValues(t, "timestamp_us", 200, 11)

	var first ValidateResponse
	if code := post(t, ts, "/validate", ValidateRequest{Train: train, Values: batch}, &first); code != http.StatusOK {
		t.Fatalf("/validate with train: status %d", code)
	}
	if first.Cached || first.Fingerprint == "" {
		t.Errorf("first train-validate should infer fresh and return a fingerprint: %+v", first)
	}
	var second ValidateResponse
	post(t, ts, "/validate", ValidateRequest{Train: train, Values: batch}, &second)
	if !second.Cached {
		t.Error("second train-validate with identical column should hit the cache")
	}
	stats := srv.CurrentStats()
	if stats.CacheHits == 0 || stats.CacheSize == 0 {
		t.Errorf("stats should show cache activity: %+v", stats)
	}
}

func TestValidateInlineRule(t *testing.T) {
	ts := httptest.NewServer(testServer(t, 16).Handler())
	defer ts.Close()
	train := trainValues(t, "timestamp_us", 100, 3)
	var inf InferResponse
	post(t, ts, "/infer", InferRequest{Values: train}, &inf)

	var resp ValidateResponse
	if code := post(t, ts, "/validate", ValidateRequest{Rule: inf.Rule, Values: train}, &resp); code != http.StatusOK {
		t.Fatalf("/validate inline rule: status %d", code)
	}
	if resp.Report.Alarm {
		t.Errorf("training column alarmed against its own rule: %+v", resp.Report)
	}
}

// TestInlineRuleCannotSizeTheProgram: every inline rule is compiled, so
// what it may lower to is bounded where it is parsed. A 1.4 KB request
// whose pattern asks for a three-million-instruction program, with
// values that drive a backtracker past any step budget, is refused
// before anything is sized by it. (The parent answered 200 after
// compiling the program once per value: 1.1 GB allocated.)
func TestInlineRuleCannotSizeTheProgram(t *testing.T) {
	h := testServer(t, 16).Handler()
	digits := strings.Repeat("7", 300)
	body := fmt.Sprintf(`{"rule": {"pattern": %q, "train_total": 100, "test": "fisher", "alpha": 0.01},
		"values": [%q, %q, %q, %q]}`,
		strings.Repeat("<digit>+", 8)+"<letter>{3000000}", digits, digits, digits, digits)
	if len(body) > 1500 {
		t.Fatalf("request body is %d bytes; the case is a small request", len(body))
	}
	var rec *httptest.ResponseRecorder
	allocated := allocatedPerRequest(1, func() {
		rec = serve(h, http.MethodPost, "/validate", "application/json", []byte(body))
	})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "ceiling of 32768 instructions") {
		t.Errorf("error does not name the ceiling: %s", rec.Body)
	}
	if allocated >= 1<<20 {
		t.Errorf("request allocated %d bytes, want < 1 MiB", allocated)
	}
}

func TestValidateUnknownFingerprint(t *testing.T) {
	ts := httptest.NewServer(testServer(t, 16).Handler())
	defer ts.Close()
	var out errorResponse
	code := post(t, ts, "/validate", ValidateRequest{Fingerprint: "deadbeef", Values: []string{"x"}}, &out)
	if code != http.StatusNotFound {
		t.Fatalf("unknown fingerprint: status %d, want 404", code)
	}
	if out.Error == "" {
		t.Error("error body should explain the miss")
	}
}

func TestLRUEviction(t *testing.T) {
	srv := testServer(t, 1) // capacity one: second insert evicts the first
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var a, b InferResponse
	post(t, ts, "/infer", InferRequest{Values: trainValues(t, "timestamp_us", 100, 3)}, &a)
	post(t, ts, "/infer", InferRequest{Values: trainValues(t, "locale", 100, 3)}, &b)

	var out errorResponse
	code := post(t, ts, "/validate", ValidateRequest{Fingerprint: a.Fingerprint, Values: []string{"x"}}, &out)
	if code != http.StatusNotFound {
		t.Fatalf("evicted fingerprint: status %d, want 404", code)
	}
	if stats := srv.CurrentStats(); stats.CacheSize != 1 {
		t.Errorf("cache size %d, want 1", stats.CacheSize)
	}
}

func TestBadRequests(t *testing.T) {
	ts := httptest.NewServer(testServer(t, 16).Handler())
	defer ts.Close()
	cases := []struct {
		path string
		body any
		want int
	}{
		{"/infer", InferRequest{}, http.StatusBadRequest},                                                                // no values
		{"/infer", InferRequest{Values: []string{"a"}, RuleParams: RuleParams{Strategy: "nope"}}, http.StatusBadRequest}, // bad strategy
		{"/validate", ValidateRequest{Values: []string{"a"}}, http.StatusBadRequest},                                     // no rule source
		{"/validate", ValidateRequest{Train: []string{"a"}}, http.StatusBadRequest},                                      // no values
	}
	for _, c := range cases {
		if code := post(t, ts, c.path, c.body, nil); code != c.want {
			t.Errorf("%s %+v: status %d, want %d", c.path, c.body, code, c.want)
		}
	}
	// Raw garbage body.
	resp, err := http.Post(ts.URL+"/infer", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage body: status %d, want 400", resp.StatusCode)
	}
}

func TestInfeasibleColumnIs422(t *testing.T) {
	ts := httptest.NewServer(testServer(t, 16).Handler())
	defer ts.Close()
	// Under basic FMDV (no vertical cuts to fall back on), unique free
	// text has no feasible low-FPR pattern.
	vals := make([]string, 50)
	for i := range vals {
		vals[i] = fmt.Sprintf("utterly unique free text value number %d with no shared shape %d", i, i*i)
	}
	var out errorResponse
	code := post(t, ts, "/infer", InferRequest{Values: vals, RuleParams: RuleParams{Strategy: "FMDV"}}, &out)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("infeasible column: status %d, want 422 (%s)", code, out.Error)
	}
}

func TestHealthzAndStats(t *testing.T) {
	ts := httptest.NewServer(testServer(t, 16).Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health["status"] != "ok" || health["patterns"].(float64) == 0 {
		t.Errorf("healthz payload: %v", health)
	}

	resp2, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var stats Stats
	if err := json.NewDecoder(resp2.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.IndexPatterns == 0 {
		t.Errorf("stats payload: %+v", stats)
	}
}

func TestNewRejectsNilIndex(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New with nil index should error")
	}
}
