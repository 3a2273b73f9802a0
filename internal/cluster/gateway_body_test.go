package cluster

// The gateway's request-body buffer: refused unread when the declared
// length is over the limit, sized by what arrives rather than what is
// promised, and pooled only once net/http's transport has let go of it.

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"autovalidate/internal/service"
)

type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

func TestGatewayOversizedBodyRefusedUnread(t *testing.T) {
	const limit = 1 << 10
	member, hits := stubBackend(t, "a", nil)
	memberURL, err := url.Parse(member.URL)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGateway(GatewayConfig{Members: []*url.URL{memberURL}, MaxBody: limit})
	if err != nil {
		t.Fatal(err)
	}
	h := g.Handler()
	for _, tc := range []struct {
		name     string
		declared int64 // Content-Length; -1 = chunked
		unread   bool
	}{
		{"declared too large", 2 * limit, true},
		{"chunked too large", -1, false},
	} {
		body := &countingReader{r: strings.NewReader(strings.Repeat("1\n", limit))}
		req := httptest.NewRequest("POST", "/streams/s/check", body)
		req.ContentLength = tc.declared
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		want := fmt.Sprintf("request body exceeds %d bytes", limit)
		if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), want) {
			t.Errorf("%s: status %d, body %s; want 413 %q", tc.name, rec.Code, rec.Body, want)
		}
		if tc.unread && body.n != 0 {
			t.Errorf("%s: %d body bytes were read before the declared length was refused", tc.name, body.n)
		}
		if !tc.unread && body.n <= limit {
			t.Errorf("%s: refused after %d bytes, before the body crossed the %d limit", tc.name, body.n, limit)
		}
	}
	if hits.Load() != 0 {
		t.Errorf("an oversized request reached a member (%d hits)", hits.Load())
	}
}

// sendHead opens a connection to the server and sends a request head
// promising declared body bytes, followed by sent.
func sendHead(t *testing.T, ts *httptest.Server, declared int64, sent string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	fmt.Fprintf(conn, "POST /streams/s/check HTTP/1.1\r\nHost: test\r\nContent-Type: text/csv\r\nContent-Length: %d\r\n\r\n%s", declared, sent)
	return conn
}

// TestGatewayHostileContentLength: at the default 64 MiB limit and over
// a real connection, one byte too many is refused on the request head
// alone, and the full 64 MiB promised, 1 KiB sent, then silence, holds
// what was sent — not what was promised.
func TestGatewayHostileContentLength(t *testing.T) {
	member, _ := stubBackend(t, "a", nil)
	g := gatewayOver(t, member.URL)
	h := g.Handler()

	gw := httptest.NewServer(h)
	conn := sendHead(t, gw, g.maxBody+1, "")
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Errorf("no answer to an oversized Content-Length: %v", err)
	} else if msg, _ := io.ReadAll(resp.Body); resp.StatusCode != http.StatusRequestEntityTooLarge ||
		!strings.Contains(string(msg), fmt.Sprintf("request body exceeds %d bytes", g.maxBody)) {
		t.Errorf("oversized Content-Length: status %d, body %s", resp.StatusCode, msg)
	}
	conn.Close()
	gw.Close()

	arrived := make(chan struct{})
	var once sync.Once
	gw = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Body = &arrivalBody{ReadCloser: r.Body, want: 1 << 10, arrived: func() { once.Do(func() { close(arrived) }) }}
		h.ServeHTTP(w, r)
	}))
	defer gw.Close()
	before := liveHeap()
	conn = sendHead(t, gw, g.maxBody, strings.Repeat("1234567\n", 128))
	select {
	case <-arrived:
	case <-time.After(5 * time.Second):
		t.Fatal("the gateway never read the 1 KiB that was sent")
	}
	if held := liveHeap() - before; held >= 1<<20 {
		t.Errorf("a stalled %d-byte promise holds %d bytes of heap", g.maxBody, held)
	}
	conn.Close()
}

// arrivalBody calls arrived once the handler has consumed want bytes.
type arrivalBody struct {
	io.ReadCloser
	want, got int
	arrived   func()
}

func (b *arrivalBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if b.got += n; b.got >= b.want {
		b.arrived()
	}
	return n, err
}

func liveHeap() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestGatewayBodyOutlivesAnEarlyAnswer: one member answers 400 before it
// has read the request body and then drains it slowly — slower than the
// 50 ms net/http's transport waits for a request write to finish before
// it hands the response's EOF to the caller — so the gateway has its
// answer, and its client too, while the transport's write loop is still
// reading the gateway's buffer. The other member reads every body and
// verifies it against the checksum its client computed. Eight clients
// send distinct bodies through one gateway: a buffer pooled while the
// transport still held it would be refilled under the transport's feet,
// which is a data race under -race and foreign bytes at a member here.
func TestGatewayBodyOutlivesAnEarlyAnswer(t *testing.T) {
	const sumHeader, lineHeader = "X-Body-Crc32", "X-Body-Line"
	var verified, mismatched, drainedEarly atomic.Int64

	// Each body is one line, unique to its request, repeated; the early
	// member checks whatever reaches it against that line.
	early, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer early.Close()
	var earlyConns sync.WaitGroup
	defer earlyConns.Wait()
	go func() {
		for {
			conn, err := early.Accept()
			if err != nil {
				return
			}
			earlyConns.Add(1)
			go func() {
				defer earlyConns.Done()
				defer conn.Close()
				// Small socket buffers on both ends keep the unread body
				// in the gateway's buffer, not in the kernel.
				conn.(*net.TCPConn).SetReadBuffer(8 << 10)
				br := bufio.NewReader(conn)
				for {
					req, err := http.ReadRequest(br)
					if err != nil {
						return
					}
					io.WriteString(conn, "HTTP/1.1 400 Bad Request\r\nContent-Length: 17\r\n\r\nnot reading that\n")
					line, off, chunk := req.Header.Get(lineHeader)+"\n", 0, make([]byte, 16<<10)
					for err == nil {
						time.Sleep(2 * time.Millisecond) // ≈ 8 MB/s: a 500 KB body takes longer than the transport waits
						var n int
						n, err = req.Body.Read(chunk)
						for _, c := range chunk[:n] {
							if c != line[off%len(line)] {
								mismatched.Add(1)
								return
							}
							off++
						}
					}
					drainedEarly.Add(1)
					if err != io.EOF {
						return // the transport gave up on the connection after its grace period
					}
				}
			}()
		}
	}()

	verifier := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if r.ContentLength != int64(len(body)) {
			t.Errorf("forward was chunked or mis-sized: Content-Length %d, body %d", r.ContentLength, len(body))
		}
		if got := strconv.FormatUint(uint64(crc32.ChecksumIEEE(body)), 10); got != r.Header.Get(sumHeader) {
			mismatched.Add(1)
			http.Error(w, "checksum mismatch", http.StatusUnprocessableEntity)
			return
		}
		verified.Add(1)
		fmt.Fprint(w, "verified")
	}))
	defer verifier.Close()

	earlyURL, _ := url.Parse("http://" + early.Addr().String())
	verifierURL, _ := url.Parse(verifier.URL)
	transport := &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		conn, err := (&net.Dialer{}).DialContext(ctx, network, addr)
		if err == nil {
			err = conn.(*net.TCPConn).SetWriteBuffer(8 << 10)
		}
		return conn, err
	}}
	defer transport.CloseIdleConnections()
	g, err := NewGateway(GatewayConfig{
		Members: []*url.URL{earlyURL, verifierURL},
		Client:  &http.Client{Transport: transport, Timeout: 30 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()

	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				// Under BodyRetain, so the buffer is a pooling candidate;
				// far more than the shrunken socket buffers take.
				line := fmt.Sprintf("client %d request %d", c, i)
				body := bytes.Repeat([]byte(line+"\n"), 25000+1000*c+i)
				req, err := http.NewRequest("POST", gw.URL+"/validate", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				req.Header.Set(lineHeader, line)
				req.Header.Set(sumHeader, strconv.FormatUint(uint64(crc32.ChecksumIEEE(body)), 10))
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				msg, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				// Round-robin lands on either member.
				if resp.StatusCode != http.StatusBadRequest && resp.StatusCode != http.StatusOK {
					t.Errorf("client %d request %d: status %d: %s", c, i, resp.StatusCode, msg)
				}
			}
		}(c)
	}
	wg.Wait()
	if mismatched.Load() != 0 {
		t.Errorf("%d forwarded bodies carried another request's bytes", mismatched.Load())
	}
	if verified.Load() == 0 || drainedEarly.Load() == 0 {
		t.Errorf("verifying member saw %d requests, early member %d; both must take part", verified.Load(), drainedEarly.Load())
	}

}

// TestSentBodyPooledOnlyAfterEveryReaderCloses pins the tracker the
// test above relies on, without the transport's timing in the way: a
// buffer with a reader still open is never pooled, Close is what lets
// go of it (once, however often it is called), and a closed reader
// never touches the buffer again — so the next request may overwrite it.
func TestSentBodyPooledOnlyAfterEveryReaderCloses(t *testing.T) {
	pooled := func(b *sentBody) bool {
		var others []*sentBody
		defer func() {
			for _, o := range others {
				sentBodyPool.Put(o)
			}
		}()
		for i := 0; i < 8; i++ {
			got := sentBodyPool.Get().(*sentBody)
			if got == b {
				return true
			}
			others = append(others, got)
		}
		return false
	}
	b := &sentBody{buf: []byte("0123456789")}
	first, second := b.reader(), b.reader() // a send and the transport's GetBody re-send
	head := make([]byte, 4)
	if n, err := first.Read(head); n != 4 || err != nil || string(head) != "0123" {
		t.Fatalf("Read = %d, %v, %q", n, err, head)
	}
	b.release()
	if pooled(b) {
		t.Fatal("buffer pooled with two readers open")
	}
	first.Close()
	first.Close()
	if n, err := first.Read(head); n != 0 || err == nil || err == io.EOF {
		t.Errorf("Read after Close = %d, %v; want an error that is not EOF", n, err)
	}
	b.release()
	if pooled(b) {
		t.Fatal("buffer pooled with one reader open (a double Close counted twice?)")
	}
	if rest, err := io.ReadAll(second); err != nil || string(rest) != "0123456789" {
		t.Errorf("second reader read %q, %v", rest, err)
	}
	second.Close()
	if b.open.Load() != 0 {
		t.Errorf("%d readers still counted after both closed", b.open.Load())
	}

	big := &sentBody{buf: make([]byte, 0, service.BodyRetain+1)}
	big.release()
	if pooled(big) {
		t.Error("a buffer above BodyRetain was pooled")
	}

	// Close racing Read: once Close has returned, the buffer is the next
	// request's to overwrite (the race detector checks the claim).
	b = &sentBody{buf: bytes.Repeat([]byte("x"), 1<<16)}
	r := b.reader()
	done := make(chan struct{})
	go func() {
		defer close(done)
		chunk := make([]byte, 512)
		for {
			if _, err := r.Read(chunk); err != nil {
				return
			}
		}
	}()
	r.Close()
	for i := range b.buf {
		b.buf[i] = 'y'
	}
	<-done
}

// TestGatewaySteadyStateAllocations: the other half of the tracker — in
// the ordinary case the transport has closed the body by the time the
// member's answer is relayed, so the buffer is pooled and proxying a
// 300 KB request allocates a small fraction of it (the parent's
// io.ReadAll allocated four times the body).
func TestGatewaySteadyStateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop puts; alloc counts are meaningless")
	}
	member := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n, _ := io.Copy(io.Discard, r.Body)
		fmt.Fprint(w, n)
	}))
	defer member.Close()
	h := gatewayOver(t, member.URL).Handler()
	body := bytes.Repeat([]byte("2019-03-01 10:00\n"), 18000)
	request := func() {
		req := httptest.NewRequest("POST", "/streams/s/check", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK || rec.Body.String() != strconv.Itoa(len(body)) {
			t.Fatalf("status %d, member read %s of %d bytes", rec.Code, rec.Body, len(body))
		}
	}
	for i := 0; i < 3; i++ {
		request()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const n = 50
	for i := 0; i < n; i++ {
		request()
	}
	runtime.ReadMemStats(&after)
	if got, limit := (after.TotalAlloc-before.TotalAlloc)/n, uint64(len(body))/4; got >= limit {
		t.Errorf("%d B allocated per %d B request, want < %d", got, len(body), limit)
	}
}
