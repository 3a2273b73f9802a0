package service

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

func TestSplitCSVColumn(t *testing.T) {
	cases := []struct {
		name string
		body string
		want []string
		err  bool
	}{
		{"plain", "a\nb\nc\n", []string{"a", "b", "c"}, false},
		{"no trailing newline", "a\nb", []string{"a", "b"}, false},
		{"crlf", "a\r\nb\r\n", []string{"a", "b"}, false},
		{"empty interior value", "a\n\nb\n", []string{"a", "", "b"}, false},
		{"quoted", "\"a,b\"\n\"c\"\n", []string{"a,b", "c"}, false},
		{"escaped quote", "\"say \"\"hi\"\"\"\n", []string{`say "hi"`}, false},
		{"quoted newline", "\"two\nlines\"\nplain\n", []string{"two\nlines", "plain"}, false},
		{"quoted crlf record", "\"a\"\r\n\"b\"\r\n", []string{"a", "b"}, false},
		{"empty body", "", nil, false},
		{"unquoted comma", "a,b\n", nil, true},
		{"comma after quote", "\"a\",b\n", nil, true},
		{"unterminated quote", "\"abc\n", nil, true},
		{"junk after quote", "\"a\"x\n", nil, true},
	}
	for _, tc := range cases {
		got, err := splitCSVColumn([]byte(tc.body), nil)
		if tc.err {
			if err == nil {
				t.Errorf("%s: expected error, got %q", tc.name, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		strs := make([]string, len(got))
		for i, v := range got {
			strs[i] = string(v)
		}
		if !reflect.DeepEqual(strs, tc.want) && !(len(strs) == 0 && len(tc.want) == 0) {
			t.Errorf("%s: got %q, want %q", tc.name, strs, tc.want)
		}
	}
}

func TestSplitNDJSONColumn(t *testing.T) {
	cases := []struct {
		name string
		body string
		want []string
		err  bool
	}{
		{"strings", "\"a\"\n\"b\"\n", []string{"a", "b"}, false},
		{"blank lines skipped", "\"a\"\n\n\"b\"\n\n", []string{"a", "b"}, false},
		{"crlf", "\"a\"\r\n\"b\"\r\n", []string{"a", "b"}, false},
		{"escapes", `"tab\there"` + "\n" + `"quote\""` + "\n", []string{"tab\there", `quote"`}, false},
		{"unicode escape", `"éA"` + "\n", []string{"éA"}, false},
		{"surrogate pair", `"😀"` + "\n", []string{"😀"}, false},
		{"bare number", "123\n-4.5\n", []string{"123", "-4.5"}, false},
		{"bare literals", "true\nnull\n", []string{"true", "null"}, false},
		{"object rejected", "{\"a\":1}\n", nil, true},
		{"array rejected", "[1]\n", nil, true},
		{"unterminated string", "\"abc\n", nil, true},
		{"trailing junk", "\"a\"x\n", nil, true},
		{"bad escape", `"\q"` + "\n", nil, true},
	}
	for _, tc := range cases {
		got, err := splitNDJSONColumn([]byte(tc.body), nil)
		if tc.err {
			if err == nil {
				t.Errorf("%s: expected error, got %q", tc.name, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		strs := make([]string, len(got))
		for i, v := range got {
			strs[i] = string(v)
		}
		if !reflect.DeepEqual(strs, tc.want) {
			t.Errorf("%s: got %q, want %q", tc.name, strs, tc.want)
		}
	}
}

// postRaw sends a raw body with an explicit content type.
func postRaw(t *testing.T, ts *httptest.Server, path, contentType, body string, out any) int {
	t.Helper()
	resp, err := http.Post(ts.URL+path, contentType, strings.NewReader(body))
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

// TestValidateColumnar exercises both columnar encodings on /validate
// against the JSON path's report for the same values.
func TestValidateColumnar(t *testing.T) {
	ts := httptest.NewServer(testServer(t, 16).Handler())
	defer ts.Close()
	train := trainValues(t, "timestamp_us", 100, 11)
	batch := trainValues(t, "timestamp_us", 300, 12)
	batch[7] = "garbage"
	batch[33] = "more garbage"

	var inf InferResponse
	if code := post(t, ts, "/infer", InferRequest{Values: train}, &inf); code != http.StatusOK {
		t.Fatalf("/infer: status %d", code)
	}

	var jsonResp ValidateResponse
	if code := post(t, ts, "/validate", ValidateRequest{Values: batch, Fingerprint: inf.Fingerprint}, &jsonResp); code != http.StatusOK {
		t.Fatalf("JSON /validate: status %d", code)
	}

	csvBody := strings.Join(batch, "\n") + "\n"
	var csvResp ValidateResponse
	if code := postRaw(t, ts, "/validate?fingerprint="+inf.Fingerprint, "text/csv", csvBody, &csvResp); code != http.StatusOK {
		t.Fatalf("CSV /validate: status %d", code)
	}
	if !reflect.DeepEqual(csvResp.Report, jsonResp.Report) {
		t.Errorf("CSV report %+v != JSON report %+v", csvResp.Report, jsonResp.Report)
	}
	if !csvResp.Cached || csvResp.Fingerprint != inf.Fingerprint {
		t.Errorf("CSV response identity: %+v", csvResp)
	}

	var nd strings.Builder
	for _, v := range batch {
		nd.WriteByte('"')
		nd.WriteString(v) // timestamps need no JSON escaping
		nd.WriteString("\"\n")
	}
	var ndResp ValidateResponse
	if code := postRaw(t, ts, "/validate?fingerprint="+inf.Fingerprint, "application/x-ndjson", nd.String(), &ndResp); code != http.StatusOK {
		t.Fatalf("NDJSON /validate: status %d", code)
	}
	if !reflect.DeepEqual(ndResp.Report, jsonResp.Report) {
		t.Errorf("NDJSON report %+v != JSON report %+v", ndResp.Report, jsonResp.Report)
	}

	// Header row skipping.
	var hdrResp ValidateResponse
	if code := postRaw(t, ts, "/validate?fingerprint="+inf.Fingerprint+"&header=true", "text/csv", "ts\n"+csvBody, &hdrResp); code != http.StatusOK {
		t.Fatalf("CSV+header /validate: status %d", code)
	}
	if !reflect.DeepEqual(hdrResp.Report, jsonResp.Report) {
		t.Errorf("CSV+header report %+v != JSON report %+v", hdrResp.Report, jsonResp.Report)
	}
}

func TestValidateColumnarErrors(t *testing.T) {
	ts := httptest.NewServer(testServer(t, 16).Handler())
	defer ts.Close()

	if code := postRaw(t, ts, "/validate", "text/csv", "a\nb\n", nil); code != http.StatusBadRequest {
		t.Errorf("missing fingerprint: status %d, want 400", code)
	}
	if code := postRaw(t, ts, "/validate?fingerprint=deadbeef", "text/csv", "a\nb\n", nil); code != http.StatusNotFound {
		t.Errorf("unknown fingerprint: status %d, want 404", code)
	}

	train := trainValues(t, "timestamp_us", 100, 13)
	var inf InferResponse
	if code := post(t, ts, "/infer", InferRequest{Values: train}, &inf); code != http.StatusOK {
		t.Fatalf("/infer: status %d", code)
	}
	if code := postRaw(t, ts, "/validate?fingerprint="+inf.Fingerprint, "text/csv", "a,b\n", nil); code != http.StatusBadRequest {
		t.Errorf("multi-field CSV: status %d, want 400", code)
	}
	if code := postRaw(t, ts, "/validate?fingerprint="+inf.Fingerprint, "text/csv", "", nil); code != http.StatusBadRequest {
		t.Errorf("empty body: status %d, want 400", code)
	}
	if code := postRaw(t, ts, "/validate?fingerprint="+inf.Fingerprint, "application/x-ndjson", "{\"v\":1}\n", nil); code != http.StatusBadRequest {
		t.Errorf("NDJSON object: status %d, want 400", code)
	}
}

// TestStreamCheckColumnar mirrors a JSON check with a CSV one and
// expects identical verdict counts, then confirms the compiled-engine
// counters surfaced on /metrics.
func TestStreamCheckColumnar(t *testing.T) {
	srv := streamServer(t, "")
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	train := trainValues(t, "timestamp_us", 120, 21)
	if code := do(t, ts, "PUT", "/streams/feed.ts", StreamPutRequest{Train: train}, nil); code != http.StatusOK {
		t.Fatalf("PUT: status %d", code)
	}

	batch := trainValues(t, "timestamp_us", 200, 22)
	batch[3] = "oops"

	var jsonDec StreamCheckResponse
	if code := do(t, ts, "POST", "/streams/feed.ts/check", StreamCheckRequest{Values: batch}, &jsonDec); code != http.StatusOK {
		t.Fatalf("JSON check: status %d", code)
	}

	var csvDec StreamCheckResponse
	body := strings.Join(batch, "\n") + "\n"
	if code := postRaw(t, ts, "/streams/feed.ts/check", "text/csv", body, &csvDec); code != http.StatusOK {
		t.Fatalf("CSV check: status %d", code)
	}
	jv, cv := jsonDec.Decision.Verdict, csvDec.Decision.Verdict
	if cv.Total != jv.Total || cv.NonConforming != jv.NonConforming ||
		cv.PValue != jv.PValue || cv.ActionName != jv.ActionName {
		t.Errorf("CSV verdict %+v != JSON verdict %+v", cv, jv)
	}
	if len(cv.Examples) != len(jv.Examples) {
		t.Errorf("CSV examples %q != JSON examples %q", cv.Examples, jv.Examples)
	}
	if cv.Seq != jv.Seq+1 {
		t.Errorf("CSV check did not advance history: seq %d after %d", cv.Seq, jv.Seq)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(raw)
	// Both checks above ran the rule's program: 200 values each.
	if !strings.Contains(metrics, `autovalidate_compiled_values_total{engine="dfa"} 400`) &&
		!strings.Contains(metrics, `autovalidate_compiled_values_total{engine="nfa"} 400`) {
		t.Errorf("compiled-engine counter missing from /metrics:\n%s", metrics)
	}

	if code := postRaw(t, ts, "/streams/nope/check", "text/csv", body, nil); code != http.StatusNotFound {
		t.Errorf("unknown stream CSV check: status %d, want 404", code)
	}
}
