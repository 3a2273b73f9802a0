package service

// A slow or hostile client must not pin a server: a body whose
// Content-Length already exceeds the limit is refused before a byte of
// it is read, a chunked one is refused where the limit is crossed, and
// a large promise reserves no memory until the bytes arrive.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

// countingReader counts the bytes its consumer has taken.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

func TestOversizedBodyRefusedUnread(t *testing.T) {
	const limit = 1 << 10
	entryPoints := []struct {
		name, body string // body is 2×limit bytes of one well-formed start
		decode     func(w http.ResponseWriter, r *http.Request) bool
	}{
		{"decodeColumnar", strings.Repeat("1\n", limit), func(w http.ResponseWriter, r *http.Request) bool {
			_, ok := decodeColumnar(w, r, colCSV, limit, false)
			return ok
		}},
		{"decodeJSONLimit", `"` + strings.Repeat("a", 2*limit-1), func(w http.ResponseWriter, r *http.Request) bool {
			var v any
			return decodeJSONLimit(w, r, &v, limit)
		}},
	}
	cases := []struct {
		name     string
		declared int64 // Content-Length; -1 = chunked
		unread   bool  // refused without consuming the body
	}{
		{"declared too large", 2 * limit, true},
		{"chunked too large", -1, false},
	}
	for _, ep := range entryPoints {
		for _, tc := range cases {
			t.Run(ep.name+"/"+tc.name, func(t *testing.T) {
				body := &countingReader{r: strings.NewReader(ep.body)}
				req := httptest.NewRequest("POST", "/", body)
				req.ContentLength = tc.declared
				rec := httptest.NewRecorder()
				if ep.decode(rec, req) {
					t.Fatal("oversized body decoded")
				}
				want := fmt.Sprintf("request body exceeds %d bytes", limit)
				if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), want) {
					t.Errorf("status %d, body %s; want 413 %q", rec.Code, rec.Body, want)
				}
				if tc.unread && body.n != 0 {
					t.Errorf("%d body bytes were read before the declared length was refused", body.n)
				}
				if !tc.unread && body.n <= limit {
					t.Errorf("chunked body refused after %d bytes, before it crossed the %d limit", body.n, limit)
				}
			})
		}
	}
}

// sendHead opens a connection to the test server and sends a request
// head promising declared body bytes, followed by sent.
func sendHead(t *testing.T, ts *httptest.Server, path, contentType string, declared int64, sent []byte) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: test\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n%s",
		path, contentType, declared, sent)
	return conn
}

// TestDeclaredOversizeAnswersBeforeTheBodyIsSent: over a real
// connection and at the server's real limit, the 413 arrives while the
// client has sent nothing but the request head. (The parent waited for
// limit+1 bytes — 64 MiB — before refusing.)
func TestDeclaredOversizeAnswersBeforeTheBodyIsSent(t *testing.T) {
	ts := httptest.NewServer(streamServer(t, "").Handler())
	defer ts.Close()
	for _, tc := range []struct{ path, contentType string }{
		{"/streams/any/check", "text/csv"},
		{"/validate", "application/json"},
		{"/streams/any/check", "application/json"},
		{"/infer", "application/json"},
		{"/ingest", "application/json"},
	} {
		conn := sendHead(t, ts, tc.path, tc.contentType, maxBody+1, nil)
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Errorf("%s (%s): no answer to an oversized Content-Length: %v", tc.path, tc.contentType, err)
			conn.Close() // or the handler waits for the body and ts.Close for the handler
			continue
		}
		msg, _ := io.ReadAll(resp.Body)
		conn.Close()
		if want := fmt.Sprintf("request body exceeds %d bytes", maxBody); resp.StatusCode != http.StatusRequestEntityTooLarge || !bytes.Contains(msg, []byte(want)) {
			t.Errorf("%s (%s): status %d, body %s; want 413 %q", tc.path, tc.contentType, resp.StatusCode, msg, want)
		}
	}
}

// arrivalBody reports once the handler has consumed want body bytes.
type arrivalBody struct {
	io.ReadCloser
	want, got int
	arrived   chan<- struct{}
}

func (b *arrivalBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if b.got < b.want && b.got+n >= b.want {
		close(b.arrived)
	}
	b.got += n
	return n, err
}

// liveHeap is the heap in use after a collection.
func liveHeap() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestStalledUploadPinsNoMemory: a client that promises the full 64 MiB,
// sends 1 KiB and stalls holds what it sent, not what it promised.
func TestStalledUploadPinsNoMemory(t *testing.T) {
	h := streamServer(t, "").Handler()
	for _, tc := range []struct{ path, contentType, sent string }{
		{"/streams/any/check", "text/csv", strings.Repeat("1234567\n", 128)},
		{"/streams/any/check", "application/json", `{"values":["` + strings.Repeat("a", 1<<10-12)},
	} {
		arrived := make(chan struct{})
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			r.Body = &arrivalBody{ReadCloser: r.Body, want: len(tc.sent), arrived: arrived}
			h.ServeHTTP(w, r)
		}))
		before := liveHeap()
		conn := sendHead(t, ts, tc.path, tc.contentType, maxBody, []byte(tc.sent))
		select {
		case <-arrived:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: the handler never read the 1 KiB that was sent", tc.contentType)
		}
		if held := liveHeap() - before; held >= 1<<20 {
			t.Errorf("%s: a stalled %d-byte promise holds %d bytes of heap", tc.contentType, maxBody, held)
		}
		conn.Close()
		ts.Close()
	}
}
