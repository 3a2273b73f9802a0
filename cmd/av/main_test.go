package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"autovalidate"
	"autovalidate/internal/cluster"
	"autovalidate/internal/index"
	"autovalidate/internal/journal"
	"autovalidate/internal/service"
)

// An index built with no token cap (τ 0) leaves the configured τ, as
// service.New and InstallSnapshot do, so av infer and av serve infer the
// same rule from one index; an index built with a cap sets it.
func TestLoadIndexKeepsTauOfUncappedIndex(t *testing.T) {
	for _, tc := range []struct{ built, want int }{{0, 8}, {5, 5}} {
		idx := index.New()
		idx.Enum.MaxTokens = tc.built
		path := filepath.Join(t.TempDir(), "lake.idx")
		if err := idx.Save(path); err != nil {
			t.Fatal(err)
		}
		opt := autovalidate.DefaultOptions()
		opt.Tau = 8
		if _, err := loadIndex(path, &opt); err != nil {
			t.Fatal(err)
		}
		if opt.Tau != tc.want {
			t.Errorf("index built with τ %d: loaded τ %d, want %d", tc.built, opt.Tau, tc.want)
		}
	}
}

// TestSubcommandFlags pins every subcommand's flag names and defaults
// to those of the standalone tool it replaced (avgen, avindex, ...), so
// dropping or renaming a flag fails here rather than in a user's
// script. The one intended change: -version is now `av version`.
func TestSubcommandFlags(t *testing.T) {
	tuning := map[string]string{"r": "0.1", "m": "100", "theta": "0.1"}
	with := func(base map[string]string, more map[string]string) map[string]string {
		out := make(map[string]string, len(base)+len(more))
		for k, v := range base {
			out[k] = v
		}
		for k, v := range more {
			out[k] = v
		}
		return out
	}
	listen := map[string]string{"debug-addr": "", "trace-sample": "1"}
	want := map[string]map[string]string{
		"gen": {"profile": "enterprise", "tables": "150", "seed": "1", "out": "lake"},
		"index": {"corpus": "lake", "append": "", "delta": "", "apply": "", "out": "lake.idx",
			"tau": "8", "workers": "0", "v": "false"},
		"infer": with(tuning, map[string]string{"index": "lake.idx", "values": "", "csv": "", "col": "",
			"strategy": "FMDV-VH"}),
		"validate": with(tuning, map[string]string{"index": "lake.idx", "train": "", "test": "", "alpha": "0.01"}),
		"monitor": with(tuning, map[string]string{"index": "lake.idx", "registry": "rules.avr", "alpha": "0.01",
			"quarantine-after": "3", "reinfer-after": "6"}),
		"tail": {"url": "http://localhost:8077", "cluster": "false", "stream": "", "kind": "", "trace": "",
			"json": "false", "interval": "2s", "once": "false", "limit": "0"},
		"serve": with(with(tuning, listen), map[string]string{"index": "lake.idx", "addr": ":8077",
			"cache": "1024", "alpha": "0.01", "strategy": "FMDV-VH", "readonly": "false", "registry": "",
			"journal": "", "journal-segment-bytes": "0", "journal-segments": "0", "leader": "false",
			"retain": "64", "follow": "", "poll": "2s"}),
		"gateway": with(listen, map[string]string{"members": "", "addr": ":8070", "check": "1s",
			"max-body": "67108864"}),
		"version": {},
	}
	if len(commands) != len(want) {
		t.Fatalf("%d subcommands, want %d", len(commands), len(want))
	}
	for _, c := range commands {
		flags := c.flagSet()
		c.setup(c, flags)
		got := map[string]string{}
		flags.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
		if !reflect.DeepEqual(got, want[c.name]) {
			t.Errorf("av %s flags:\n got %v\nwant %v", c.name, got, want[c.name])
		}
	}
}

// tailRig is a cluster-mode tailer over an in-process gateway in front
// of journaled members; the tailer prints NDJSON into out and its
// warnings into errs. A member whose down flag is set answers 503.
type tailRig struct {
	jrns    []*journal.Journal
	members []string // member URLs as the gateway labels events
	down    []*atomic.Bool
	tl      *tailer
	out     bytes.Buffer
	errs    bytes.Buffer
}

func newTailRig(t *testing.T, members, limit int) *tailRig {
	t.Helper()
	r := &tailRig{}
	var urls []*url.URL
	for range members {
		jrn, err := journal.Open(t.TempDir(), journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { jrn.Close() })
		svc, err := service.New(service.Config{Index: index.New(), Journal: jrn})
		if err != nil {
			t.Fatal(err)
		}
		down := new(atomic.Bool)
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			if down.Load() {
				http.Error(w, "member down", http.StatusServiceUnavailable)
				return
			}
			svc.Handler().ServeHTTP(w, req)
		}))
		t.Cleanup(ts.Close)
		u, err := url.Parse(ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		r.jrns = append(r.jrns, jrn)
		r.down = append(r.down, down)
		r.members = append(r.members, u.String())
		urls = append(urls, u)
	}
	g, err := cluster.NewGateway(cluster.GatewayConfig{Members: urls})
	if err != nil {
		t.Fatal(err)
	}
	gw := httptest.NewServer(g.Handler())
	t.Cleanup(gw.Close)
	r.tl = &tailer{
		client:  gw.Client(),
		base:    gw.URL,
		cluster: true,
		jsonOut: true,
		limit:   limit,
		prog:    "avtail",
		out:     &r.out,
		errOut:  &r.errs,
	}
	return r
}

// append journals one event on member m, stamped at (the member's
// clock reading) at.
func (r *tailRig) append(t *testing.T, m int, at time.Time) {
	t.Helper()
	if _, err := r.jrns[m].Append(journal.Event{Kind: journal.KindIngest, Time: at}); err != nil {
		t.Fatal(err)
	}
}

// poll polls n times and returns every event printed so far, labelled
// "m<member>#<id>", in print order.
func (r *tailRig) poll(t *testing.T, n int) []string {
	t.Helper()
	for range n {
		if err := r.tl.poll(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(r.out.String()), "\n") {
		if line == "" {
			continue // nothing printed yet
		}
		var e cluster.ClusterEvent
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("output line %q: %v", line, err)
		}
		got = append(got, fmt.Sprintf("m%d#%d", slices.Index(r.members, e.Member), e.ID))
	}
	return got
}

var t0 = time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)

// TestTailClusterFollowsPastLimit: a member holding more events than
// one page must not pin the cluster tail to its oldest page. Members
// answer /events oldest-first up to -limit, so a tail that sends no
// since re-reads the same first page on every poll and never prints
// the events after it.
func TestTailClusterFollowsPastLimit(t *testing.T) {
	r := newTailRig(t, 1, 2)
	for i := range 5 {
		r.append(t, 0, t0.Add(time.Duration(i)*time.Millisecond))
	}
	want := []string{"m0#1", "m0#2", "m0#3", "m0#4", "m0#5"}
	if got := r.poll(t, 6); !slices.Equal(got, want) {
		t.Fatalf("printed %v, want %v", got, want)
	}
	r.append(t, 0, t0.Add(time.Second))
	want = append(want, "m0#6")
	if got := r.poll(t, 2); !slices.Equal(got, want) {
		t.Fatalf("after a new event printed %v, want %v", got, want)
	}
}

// TestTailClusterKeepsLaggingMember: since is the oldest member's
// newest-seen time, so a member whose clock runs behind still shows
// events stamped before ones already printed from another member.
func TestTailClusterKeepsLaggingMember(t *testing.T) {
	r := newTailRig(t, 2, 0)
	lag := t0.Add(-time.Hour)
	r.append(t, 0, t0)
	r.append(t, 1, lag)
	r.poll(t, 1)
	r.append(t, 0, t0.Add(time.Second))
	r.append(t, 1, lag.Add(time.Second))
	want := []string{"m1#1", "m0#1", "m1#2", "m0#2"}
	if got := r.poll(t, 1); !slices.Equal(got, want) {
		t.Fatalf("printed %v, want %v", got, want)
	}
}

// TestTailClusterQuietMemberDoesNotPin: a quiet member's old mark
// holds since back, so a busy member's already-printed events fill
// every full page; the next page must start where the full one was
// cut instead.
func TestTailClusterQuietMemberDoesNotPin(t *testing.T) {
	r := newTailRig(t, 2, 2)
	r.append(t, 1, t0.Add(-time.Hour))
	for i := range 5 {
		r.append(t, 0, t0.Add(time.Duration(i)*time.Millisecond))
	}
	want := []string{"m1#1", "m0#1", "m0#2", "m0#3", "m0#4", "m0#5"}
	if got := r.poll(t, 6); !slices.Equal(got, want) {
		t.Fatalf("printed %v, want %v", got, want)
	}
}

// TestTailClusterLaggingMemberAfterFullPage: a member whose clock runs
// an hour behind writes again after a busy member's full pages were
// printed; its new event is stamped before all of them and must still
// show.
func TestTailClusterLaggingMemberAfterFullPage(t *testing.T) {
	r := newTailRig(t, 2, 2)
	lag := t0.Add(-time.Hour)
	r.append(t, 1, lag)
	for i := range 5 {
		r.append(t, 0, t0.Add(time.Duration(i)*time.Millisecond))
	}
	want := []string{"m1#1", "m0#1", "m0#2", "m0#3", "m0#4", "m0#5"}
	if got := r.poll(t, 6); !slices.Equal(got, want) {
		t.Fatalf("printed %v, want %v", got, want)
	}
	r.append(t, 1, lag.Add(time.Second))
	want = append(want, "m1#2")
	if got := r.poll(t, 3); !slices.Equal(got, want) {
		t.Fatalf("after the lagging member wrote again printed %v, want %v", got, want)
	}
}

// TestTailClusterMemberOutage: a member that answers 503 while another
// fills pages must show its events once it is back, however old their
// timestamps are by then.
func TestTailClusterMemberOutage(t *testing.T) {
	r := newTailRig(t, 2, 2)
	r.append(t, 1, t0)
	r.down[1].Store(true)
	for i := range 5 {
		r.append(t, 0, t0.Add(time.Duration(i+1)*time.Millisecond))
	}
	want := []string{"m0#1", "m0#2", "m0#3", "m0#4", "m0#5"}
	if got := r.poll(t, 5); !slices.Equal(got, want) {
		t.Fatalf("during the outage printed %v, want %v", got, want)
	}
	if !strings.Contains(r.errs.String(), "member unavailable") {
		t.Errorf("the outage was not reported: %q", r.errs.String())
	}
	r.down[1].Store(false)
	want = append(want, "m1#1")
	if got := r.poll(t, 4); !slices.Equal(got, want) {
		t.Fatalf("after the outage printed %v, want %v", got, want)
	}
}

// TestTailClusterExactlyOnce runs seeded schedules of appends, polls
// and 503 outages over three members whose clocks are up to an hour
// apart (and step back a little now and then), then polls with every
// member up until no event can remain unprinted. Each event must be
// printed exactly once, and each member's in ID order.
func TestTailClusterExactlyOnce(t *testing.T) {
	const members = 3
	for seed := range int64(6) {
		for _, limit := range []int{0, 1, 2, 3} {
			t.Run(fmt.Sprintf("seed=%d/limit=%d", seed, limit), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				r := newTailRig(t, members, limit)
				var offset [members]time.Duration
				for m := range offset {
					offset[m] = time.Duration(rng.Int63n(int64(2*time.Hour))) - time.Hour
				}
				var appended [members]int
				for step := range 60 {
					m := rng.Intn(members)
					switch x := rng.Intn(10); {
					case x < 5:
						jitter := time.Duration(rng.Intn(5)-2) * time.Millisecond
						r.append(t, m, t0.Add(offset[m]+time.Duration(step)*time.Millisecond+jitter))
						appended[m]++
					case x < 7:
						r.down[m].Store(!r.down[m].Load())
					default:
						r.poll(t, 1)
					}
				}
				for _, d := range r.down {
					d.Store(false)
				}
				// Quiet phase: every poll prints at least one event while
				// any is left.
				total := appended[0] + appended[1] + appended[2]
				var printed [members][]string
				for _, e := range r.poll(t, total+1) {
					m := int(e[1] - '0')
					printed[m] = append(printed[m], e)
				}
				for m := range members {
					var want []string
					for id := 1; id <= appended[m]; id++ {
						want = append(want, fmt.Sprintf("m%d#%d", m, id))
					}
					if !slices.Equal(printed[m], want) {
						t.Errorf("member %d: printed %v, want %v", m, printed[m], want)
					}
				}
			})
		}
	}
}

// TestIdleConnectionClosed: a keep-alive connection that sends nothing
// after its last response is closed once idleTimeout passes, so idle
// clients cannot pin `av serve` or `av gateway`.
func TestIdleConnectionClosed(t *testing.T) {
	defer func(d time.Duration) { idleTimeout = d }(idleTimeout)
	idleTimeout = 200 * time.Millisecond
	server := newServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { fmt.Fprint(w, "ok") }))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go server.Serve(ln)
	defer server.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := fmt.Fprint(conn, "GET / HTTP/1.1\r\nHost: av\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil || resp.Close {
		t.Fatalf("response read: %v, Connection: close %v; want a kept-alive connection", err, resp.Close)
	}
	resp.Body.Close()

	idle := time.Now()
	conn.SetReadDeadline(idle.Add(10 * time.Second))
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("idle connection read %v after %v, want the server to close it (EOF)", err, time.Since(idle))
	}
	if waited := time.Since(idle); waited < idleTimeout/2 {
		t.Errorf("connection closed after %v, before the %v idle timeout", waited, idleTimeout)
	}
}

// TestSlowBodyCut: a client that sends its request head and then
// trickles its body is cut off once readTimeout passes, so a handler
// reading the body gets an error instead of waiting forever, and the
// connection is closed.
func TestSlowBodyCut(t *testing.T) {
	defer func(d time.Duration) { readTimeout = d }(readTimeout)
	readTimeout = 300 * time.Millisecond
	read := make(chan error, 1)
	server := newServer(http.HandlerFunc(func(_ http.ResponseWriter, r *http.Request) {
		_, err := io.ReadAll(r.Body)
		read <- err
	}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go server.Serve(ln)
	defer server.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := fmt.Fprint(conn, "POST / HTTP/1.1\r\nHost: av\r\nContent-Length: 1000\r\n\r\nabc"); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-read:
		if err == nil {
			t.Fatal("the handler read a 1000-byte body of which 3 bytes were sent")
		}
		if waited := time.Since(start); waited < readTimeout/2 {
			t.Errorf("body read failed after %v, before the %v read timeout: %v", waited, readTimeout, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the handler still waits for the body after 10 s")
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("connection not closed after the read timeout: %v", err)
	}
}
