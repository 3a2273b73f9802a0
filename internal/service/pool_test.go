package service

// The pooled request bodies must never be observable: whatever a
// columnar request leaves behind — verdict examples, attribution
// samples, domain examples, journal events, a re-inferred rule — holds
// its own strings, not views into a slab the next request overwrites;
// and in steady state a columnar check allocates next to nothing.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// csvBody and ndjsonBody encode a column the two ways the endpoint reads.
func csvBody(values []string) []byte {
	return []byte(strings.Join(values, "\n") + "\n")
}

func ndjsonBody(values []string) []byte {
	var b bytes.Buffer
	for _, v := range values {
		fmt.Fprintf(&b, "%q\n", v)
	}
	return b.Bytes()
}

// serve runs one request through the handler on the calling goroutine
// (no network, so the column goes back to this P's pool slot).
func serve(h http.Handler, method, path, contentType string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// clobberPooledColumns overwrites every byte of every column the pool
// will hand out, as the next requests' bodies would.
func clobberPooledColumns() {
	var held []*column
	for i := 0; i < 16; i++ {
		c := columnPool.Get().(*column)
		for j := range c.slab[:cap(c.slab)] {
			c.slab[:cap(c.slab)][j] = 0xFF
		}
		held = append(held, c)
	}
	for _, c := range held {
		columnPool.Put(c)
	}
}

func TestPooledColumnIsNotRetained(t *testing.T) {
	srv := journaledServer(t, filepath.Join(t.TempDir(), "journal"), "")
	h := srv.Handler()
	ts := httptest.NewServer(h)
	defer ts.Close()

	// Stream "cards" has a semantic domain (luhn) on top of its pattern;
	// "drift" will be pushed up the ladder until it re-infers; the
	// "other" streams and a cached /infer rule carry batch B.
	cards := make([]string, 120)
	for i := range cards {
		cards[i] = luhnCard(i)
	}
	putStream(t, ts, "cards", cards)
	putStream(t, ts, "drift", trainValues(t, "timestamp_us", 120, 5))
	for g := 0; g < 8; g++ {
		putStream(t, ts, fmt.Sprintf("other%d", g), trainValues(t, "timestamp_us", 120, int64(30+g)))
	}
	var inf InferResponse
	if code := post(t, ts, "/infer", InferRequest{Values: trainValues(t, "timestamp_us", 100, 11)}, &inf); code != http.StatusOK {
		t.Fatalf("/infer: status %d", code)
	}

	// Batch A: syntactic garbage (examples, attribution samples), broken
	// check digits (domain examples), and enough of both to alarm (a
	// journal event).
	var batchA []string
	for i := 0; i < 300; i++ {
		switch {
		case i%10 == 3:
			batchA = append(batchA, fmt.Sprintf("!!drift-%d!!", i))
		case i%10 == 7:
			batchA = append(batchA, breakLuhn(luhnCard(1000+i)))
		default:
			batchA = append(batchA, luhnCard(1000+i))
		}
	}
	recA := serve(h, "POST", "/streams/cards/check", "text/csv", csvBody(batchA))
	if recA.Code != http.StatusOK {
		t.Fatalf("batch A: status %d: %s", recA.Code, recA.Body)
	}
	var respA StreamCheckResponse
	decodeInto(t, recA.Body.Bytes(), &respA)
	vA := respA.Decision.Verdict
	if len(vA.Examples) == 0 || len(vA.DomainExamples) == 0 || vA.Attribution == nil || respA.EventID == 0 {
		t.Fatalf("batch A does not exercise every retained value: %+v (event %d)", vA, respA.EventID)
	}
	var samples int
	for _, c := range vA.Attribution.Classes {
		samples += len(c.Samples)
	}
	if samples == 0 {
		t.Fatalf("batch A's attribution carries no samples: %+v", vA.Attribution)
	}

	// Drive "drift" to re-inference with CSV batches: the new rule is
	// learned from values that arrived as byte views.
	locale := csvBody(trainValues(t, "locale", 100, 7))
	reinferred := false
	for i := 0; i < 8 && !reinferred; i++ {
		rec := serve(h, "POST", "/streams/drift/check", "text/csv", locale)
		var resp StreamCheckResponse
		decodeInto(t, rec.Body.Bytes(), &resp)
		reinferred = resp.Reinferred
	}
	if !reinferred {
		t.Fatal("drift never re-inferred")
	}

	retained := func() map[string]string {
		out := map[string]string{}
		for _, path := range []string{
			"/streams/cards/history",
			fmt.Sprintf("/events?id=%d", respA.EventID),
			"/streams/cards/explain",
			"/streams/drift",
			"/streams/drift/history",
		} {
			rec := serve(h, "GET", path, "", nil)
			if rec.Code != http.StatusOK {
				t.Fatalf("GET %s: status %d: %s", path, rec.Code, rec.Body)
			}
			out[path] = rec.Body.String()
		}
		return out
	}
	before := retained()
	for _, want := range []string{vA.Examples[0], vA.DomainExamples[0]} {
		if !strings.Contains(before["/streams/cards/history"], want) {
			t.Fatalf("history does not carry batch A's example %q", want)
		}
	}

	// Batch B: the pooled slabs are overwritten outright, then reused by
	// 8 goroutines' different batches over HTTP.
	clobberPooledColumns()
	type batchB struct {
		path, contentType, marker string
		body                      []byte
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		var batches []batchB
		for i := 0; i < 6; i++ {
			values := trainValues(t, "timestamp_us", 250+10*g, int64(100*g+i))
			values[g] = fmt.Sprintf("B-%d-%d", g, i)
			b := batchB{fmt.Sprintf("/streams/other%d/check", g), "text/csv", values[g], csvBody(values)}
			switch i % 3 {
			case 1:
				b.contentType, b.body = "application/x-ndjson", ndjsonBody(values)
			case 2:
				b.path = "/validate?fingerprint=" + inf.Fingerprint
			}
			batches = append(batches, b)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, b := range batches {
				resp, err := http.Post(ts.URL+b.path, b.contentType, bytes.NewReader(b.body))
				if err != nil {
					t.Error(err)
					return
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				// The one foreign value comes back as an example.
				if resp.StatusCode != http.StatusOK || !bytes.Contains(raw, []byte(b.marker)) {
					t.Errorf("batch B %s: status %d, body %s", b.marker, resp.StatusCode, raw)
				}
			}
		}()
	}
	wg.Wait()
	clobberPooledColumns()

	after := retained()
	for path, was := range before {
		if now := after[path]; now != was {
			t.Errorf("GET %s changed after batch B reused the pooled column:\nbefore: %s\nafter:  %s", path, was, now)
		}
	}
}

func decodeInto(t *testing.T, raw []byte, out any) {
	t.Helper()
	if err := json.Unmarshal(raw, out); err != nil {
		t.Fatalf("decoding %s: %v", raw, err)
	}
}

// allocatedPerRequest is the quantity the benchmark reports as
// service.handler_bytes_per_op: the TotalAlloc delta over n requests.
func allocatedPerRequest(n int, request func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		request()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(n)
}

// TestColumnarSteadyStateAllocations: once the pool is warm, a 20 000-
// value check allocates a small fraction of its body (the parent
// allocated twelve times the body); a body above BodyRetain is served
// just as correctly, from memory that is not kept.
func TestColumnarSteadyStateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop puts; alloc counts are meaningless")
	}
	srv := streamServer(t, "")
	h := srv.Handler()
	ts := httptest.NewServer(h)
	putStream(t, ts, "feed.ts", trainValues(t, "timestamp_us", 120, 21))
	ts.Close()

	check := func(contentType string, body []byte, wantTotal int) func() {
		return func() {
			rec := serve(h, "POST", "/streams/feed.ts/check", contentType, body)
			var resp StreamCheckResponse
			decodeInto(t, rec.Body.Bytes(), &resp)
			if v := resp.Decision.Verdict; rec.Code != http.StatusOK || v.Total != wantTotal || v.NonConforming != 0 || v.ActionName != "accept" {
				t.Fatalf("%s check of %d values: status %d, verdict %+v", contentType, wantTotal, rec.Code, v)
			}
		}
	}
	values := trainValues(t, "timestamp_us", 20000, 22)
	for _, enc := range []struct {
		contentType string
		body        []byte
	}{
		{"text/csv", csvBody(values)},
		{"application/x-ndjson", ndjsonBody(values)},
	} {
		request := check(enc.contentType, enc.body, len(values))
		for i := 0; i < 3; i++ {
			request() // warm-up: the pooled column grows to this body
		}
		if got, limit := allocatedPerRequest(50, request), uint64(len(enc.body))/4; got >= limit {
			t.Errorf("%s: %d B allocated per %d B request, want < %d", enc.contentType, got, len(enc.body), limit)
		}
	}

	big := trainValues(t, "timestamp_us", 80000, 23)
	body := csvBody(big)
	if len(body) <= BodyRetain {
		t.Fatalf("test body of %d B is not above BodyRetain", len(body))
	}
	request := check("text/csv", body, len(big))
	request()
	if got := allocatedPerRequest(4, request); got < uint64(len(body)) {
		t.Errorf("a %d B body above BodyRetain allocated only %d B per request: it is being pooled", len(body), got)
	}
}
