package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// stubBackend is a minimal member that records hits and tags responses
// with its id.
func stubBackend(t *testing.T, id string, ready *atomic.Bool) (*httptest.Server, *atomic.Uint64) {
	t.Helper()
	var hits atomic.Uint64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			if ready != nil && !ready.Load() {
				w.WriteHeader(http.StatusServiceUnavailable)
				return
			}
			fmt.Fprint(w, `{"status":"ready"}`)
			return
		}
		hits.Add(1)
		fmt.Fprintf(w, "backend=%s path=%s", id, r.URL.Path)
	}))
	t.Cleanup(ts.Close)
	return ts, &hits
}

func gatewayOver(t *testing.T, urls ...string) *Gateway {
	t.Helper()
	members := make([]*url.URL, len(urls))
	for i, s := range urls {
		u, err := url.Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		members[i] = u
	}
	g, err := NewGateway(GatewayConfig{Members: members})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func fetchVia(t *testing.T, gw *httptest.Server, method, path string) (int, string) {
	t.Helper()
	return sendVia(t, gw, method, path, []byte(`{}`))
}

func sendVia(t *testing.T, gw *httptest.Server, method, path string, body []byte) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, gw.URL+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	answer, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(answer)
}

// TestGatewayStreamAffinity checks that every request for one stream
// lands on the same member while different streams spread out, and that
// the routing is deterministic across gateway instances.
func TestGatewayStreamAffinity(t *testing.T) {
	a, _ := stubBackend(t, "a", nil)
	b, _ := stubBackend(t, "b", nil)
	c, _ := stubBackend(t, "c", nil)
	g := gatewayOver(t, a.URL, b.URL, c.URL)
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()

	owner := map[string]string{}
	for _, stream := range []string{"orders", "clicks", "billing", "inventory", "sessions"} {
		var first string
		for i := 0; i < 4; i++ {
			_, body := fetchVia(t, gw, http.MethodPost, "/streams/"+stream+"/check")
			if first == "" {
				first = body
			} else if body != first {
				t.Fatalf("stream %q moved between members: %q then %q", stream, first, body)
			}
		}
		owner[stream] = first
	}
	distinct := map[string]bool{}
	for _, o := range owner {
		distinct[o] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("5 streams all hashed to one member: %v", owner)
	}
	// Determinism across instances: a second gateway over the same
	// members routes identically.
	g2 := gatewayOver(t, a.URL, b.URL, c.URL)
	for stream, want := range owner {
		seq1, seq2 := g.sequence(stream), g2.sequence(stream)
		if len(seq1) != len(seq2) {
			t.Fatal("sequence length mismatch")
		}
		for i := range seq1 {
			if seq1[i] != seq2[i] {
				t.Fatalf("stream %q: gateway instances disagree on order (want owner %s)", stream, want)
			}
		}
	}
}

// TestGatewayRoundRobinSpreads checks stateless traffic reaches every
// member.
func TestGatewayRoundRobinSpreads(t *testing.T) {
	a, ha := stubBackend(t, "a", nil)
	b, hb := stubBackend(t, "b", nil)
	g := gatewayOver(t, a.URL, b.URL)
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()

	for i := 0; i < 10; i++ {
		if code, _ := fetchVia(t, gw, http.MethodPost, "/validate"); code != http.StatusOK {
			t.Fatalf("validate %d = %d", i, code)
		}
	}
	if ha.Load() == 0 || hb.Load() == 0 {
		t.Fatalf("round robin skipped a member: a=%d b=%d", ha.Load(), hb.Load())
	}
}

// TestGatewayFailover kills a member and expects requests to fail over
// to the next replica — including a member that dies mid-request
// (accepts the connection, then drops it without a response).
func TestGatewayFailover(t *testing.T) {
	// dying accepts requests and severs the connection mid-response.
	dying := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hj, ok := w.(http.Hijacker)
		if !ok {
			t.Error("no hijacker")
			return
		}
		conn, _, err := hj.Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		conn.Close()
	}))
	defer dying.Close()
	// healthy keeps what it was sent: the retry re-sends the body from
	// the gateway's buffer, after the dying member cut the first send.
	var hits atomic.Uint64
	var received sync.Map // path → body
	healthy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Error(err)
		}
		received.Store(r.URL.Path, body)
		hits.Add(1)
		fmt.Fprintf(w, "backend=ok path=%s", r.URL.Path)
	}))
	defer healthy.Close()

	g := gatewayOver(t, dying.URL, healthy.URL)
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()

	// Pick stream names whose ring order puts the dying member first, so
	// every request exercises the failover path rather than landing on
	// the healthy member directly. FNV-1a spreads short sequential names
	// over a narrow arc of the ring, so for about one port pair in
	// twenty the first thousand names hold fewer than six for the dying
	// member; the search runs on until it finds them.
	var streams []string
	for i := 0; len(streams) < 6 && i < 100000; i++ {
		name := fmt.Sprintf("s%d", i)
		if g.sequence(name)[0] == 0 { // member 0 is the dying one
			streams = append(streams, name)
		}
	}
	if len(streams) < 6 {
		t.Fatal("could not find streams homed on the dying member")
	}
	for _, name := range streams {
		path := "/streams/" + name + "/check"
		sent := bytes.Repeat([]byte(name+"\n"), 30000)
		code, body := sendVia(t, gw, http.MethodPost, path, sent)
		if code != http.StatusOK || !strings.Contains(body, "backend=ok") {
			t.Fatalf("stream %s: code=%d body=%q", name, code, body)
		}
		if got, _ := received.Load(path); !bytes.Equal(got.([]byte), sent) {
			t.Fatalf("stream %s: the re-sent body (%d bytes) is not the %d bytes the client sent", name, len(got.([]byte)), len(sent))
		}
	}
	if hits.Load() != 6 {
		t.Fatalf("healthy member served %d of 6", hits.Load())
	}
	// The dying member is marked unhealthy after the first failure.
	for _, m := range g.Members() {
		if m.URL == dying.URL && m.Healthy {
			t.Fatal("dying member still marked healthy")
		}
	}

	// A fully stopped member behaves the same.
	healthy2, _ := stubBackend(t, "ok2", nil)
	stopped := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	stoppedURL := stopped.URL
	stopped.Close()
	g2 := gatewayOver(t, stoppedURL, healthy2.URL)
	gw2 := httptest.NewServer(g2.Handler())
	defer gw2.Close()
	if code, body := fetchVia(t, gw2, http.MethodPost, "/validate"); code != http.StatusOK || !strings.Contains(body, "backend=ok2") {
		t.Fatalf("failover from stopped member: code=%d body=%q", code, body)
	}
}

// TestGatewayDoesNotRetrySentWrites sends a mutating request to a
// member that dies after receiving it: the gateway must answer 502
// rather than replay the write on another member (which could apply the
// mutation twice), while the same failure on a read retries fine.
func TestGatewayDoesNotRetrySentWrites(t *testing.T) {
	// Both members run one handler; the member the ring homes the
	// stream on is then switched into hijack-and-close mode. Choosing
	// the member from the stream, not a stream from the member, holds
	// for every ring the loopback ports produce: FNV-1a clusters short,
	// similar names, so a member can home none of a thousand of them.
	var dyingMember atomic.Int32
	dyingMember.Store(-1)
	var hits atomic.Uint64
	member := func(i int32) *httptest.Server {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if dyingMember.Load() == i {
				conn, _, err := w.(http.Hijacker).Hijack()
				if err != nil {
					t.Error(err)
					return
				}
				conn.Close()
				return
			}
			hits.Add(1)
			fmt.Fprintf(w, "backend=ok path=%s", r.URL.Path)
		}))
		t.Cleanup(ts.Close)
		return ts
	}
	g := gatewayOver(t, member(0).URL, member(1).URL)
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()

	const ingestStream = "w0"
	dyingMember.Store(int32(g.sequence(ingestStream)[0]))
	// PUT /streams/{name} is a sent write: no retry, 502.
	if code, _ := fetchVia(t, gw, http.MethodPut, "/streams/"+ingestStream); code != http.StatusBadGateway {
		t.Fatalf("sent write = %d, want 502", code)
	}
	if hits.Load() != 0 {
		t.Fatalf("write was replayed on the healthy member (%d hits)", hits.Load())
	}
	// The same stream's check IS retried (at-least-once monitoring).
	if code, body := fetchVia(t, gw, http.MethodPost, "/streams/"+ingestStream+"/check"); code != http.StatusOK || !strings.Contains(body, "backend=ok") {
		t.Fatalf("check after write failure: code=%d body=%q", code, body)
	}
}

// TestGatewayHealthChecksGateOnReadyz flips a member's /readyz and
// expects CheckOnce to update its routability.
func TestGatewayHealthChecksGateOnReadyz(t *testing.T) {
	var readyA atomic.Bool
	readyA.Store(false) // unready from the start, as a booting follower
	a, hitsA := stubBackend(t, "a", &readyA)
	b, _ := stubBackend(t, "b", nil)
	g := gatewayOver(t, a.URL, b.URL)
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()

	ctx := context.Background()
	g.CheckOnce(ctx)
	for _, m := range g.Members() {
		if m.URL == a.URL && m.Healthy {
			t.Fatal("unready member marked healthy")
		}
	}
	for i := 0; i < 4; i++ {
		if code, _ := fetchVia(t, gw, http.MethodPost, "/validate"); code != http.StatusOK {
			t.Fatalf("validate = %d", code)
		}
	}
	if hitsA.Load() != 0 {
		t.Fatalf("unready member received %d requests", hitsA.Load())
	}

	readyA.Store(true)
	g.CheckOnce(ctx)
	for _, m := range g.Members() {
		if m.URL == a.URL && !m.Healthy {
			t.Fatal("ready member still marked unhealthy")
		}
	}
}
