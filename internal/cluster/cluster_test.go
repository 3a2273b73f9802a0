package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"
	"time"

	"autovalidate/internal/core"
	"autovalidate/internal/datagen"
	"autovalidate/internal/index"
	"autovalidate/internal/service"
	"autovalidate/internal/validate"
)

var (
	fixtureOnce sync.Once
	fixtureIdx  *index.Index
)

// lakeIndex builds one small lake index shared across tests.
func lakeIndex(t *testing.T) *index.Index {
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

func smallOptions() *core.Options {
	opt := core.DefaultOptions()
	opt.M = 5
	return &opt
}

// newLeader builds a leader service (own index clone, delta log) and its
// test server.
func newLeader(t *testing.T, retain int) (*service.Server, *httptest.Server) {
	t.Helper()
	svc, err := service.New(service.Config{
		Index:    lakeIndex(t).Clone(),
		Options:  smallOptions(),
		DeltaLog: index.NewDeltaLog(retain),
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLeader(svc)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(l.Handler())
	t.Cleanup(ts.Close)
	return svc, ts
}

// newFollower builds an unready follower service against the leader URL
// and its catch-up loop.
func newFollower(t *testing.T, leaderURL string) (*service.Server, *Follower) {
	t.Helper()
	lu, err := url.Parse(leaderURL)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := service.New(service.Config{
		Index:        index.New(),
		Options:      smallOptions(),
		StartUnready: true,
		WriteProxy:   lu,
		DeltaLog:     index.NewDeltaLog(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFollower(FollowerConfig{Leader: lu, Service: svc, PollInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	return svc, f
}

// postJSON sends a JSON request and decodes the response.
func postJSON(t *testing.T, method, u string, body, out any) int {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(method, u, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, u, err)
		}
	}
	return resp.StatusCode
}

// ingestBody builds a one-table /ingest request from a fresh domain
// column.
func ingestBody(t *testing.T, seed int64) map[string]any {
	t.Helper()
	vals, err := datagen.FreshColumn("ipv4", 30, seed)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]any{"tables": []map[string]any{{
		"name":    fmt.Sprintf("arrival-%d", seed),
		"columns": []map[string]any{{"name": "addr", "values": vals}},
	}}}
}

func train(t *testing.T, domain string, n int, seed int64) []string {
	t.Helper()
	vals, err := datagen.FreshColumn(domain, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return vals
}

func TestSnapshotRoundTrip(t *testing.T) {
	svc, _ := newLeader(t, 0)
	// Register a stream so the registry section is non-trivial.
	if _, err := svc.Registry().Put("s1", mustRule(t, svc), *smallOptions(), svc.Generation()); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, svc); err != nil {
		t.Fatal(err)
	}
	idx, reg, _, err := ReadSnapshot(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if idx.Size() != svc.Index().Size() || idx.Generation != svc.Generation() {
		t.Fatalf("snapshot index %v, want %v", idx, svc.Index())
	}
	if reg.Len() != 1 {
		t.Fatalf("snapshot registry has %d streams, want 1", reg.Len())
	}
	// Truncation and corruption must error, never panic.
	raw := buf.Bytes()
	if _, _, _, err := ReadSnapshot(bytes.NewReader(raw[:len(raw)/3]), int64(len(raw))); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/2] ^= 0x40
	if _, _, _, err := ReadSnapshot(bytes.NewReader(flipped), int64(len(flipped))); err == nil {
		t.Fatal("corrupted snapshot accepted")
	}
}

// mustRule infers a rule against the service's index for registry
// fixtures.
func mustRule(t *testing.T, svc *service.Server) *validate.Rule {
	t.Helper()
	r, err := core.Infer(train(t, "timestamp_us", 100, 11), svc.Index(), *smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestFollowerBootstrapAndDeltaCatchUp walks the protocol end to end:
// snapshot bootstrap makes the follower ready at the leader's
// generation; a leader ingest then replicates as a delta (not a second
// snapshot); a stream registered on the leader replicates via the
// registry-epoch path.
func TestFollowerBootstrapAndDeltaCatchUp(t *testing.T) {
	leaderSvc, leaderTS := newLeader(t, 0)
	followerSvc, f := newFollower(t, leaderTS.URL)
	ctx := context.Background()

	if followerSvc.Ready() {
		t.Fatal("follower ready before bootstrap")
	}
	if err := f.CatchUp(ctx); err != nil {
		t.Fatal(err)
	}
	if !followerSvc.Ready() {
		t.Fatal("follower not ready after bootstrap")
	}
	if g, lg := followerSvc.Generation(), leaderSvc.Generation(); g != lg {
		t.Fatalf("follower generation %d, leader %d", g, lg)
	}

	// Leader ingests one table; the follower catches up via one delta.
	var ing struct {
		Generation uint64 `json:"generation"`
	}
	if code := postJSON(t, http.MethodPost, leaderTS.URL+"/ingest", ingestBody(t, 1), &ing); code != http.StatusOK {
		t.Fatalf("leader ingest = %d", code)
	}
	if err := f.CatchUp(ctx); err != nil {
		t.Fatal(err)
	}
	st := f.Status()
	if st.Generation != ing.Generation {
		t.Fatalf("follower generation %d after catch-up, want %d", st.Generation, ing.Generation)
	}
	if st.Snapshots != 1 || st.Deltas != 1 {
		t.Fatalf("status = %+v, want 1 snapshot and 1 delta", st)
	}

	// A stream registered on the leader appears on the follower after
	// the next round (epoch change → registry fetch).
	put := map[string]any{"train": train(t, "timestamp_us", 100, 7)}
	if code := postJSON(t, http.MethodPut, leaderTS.URL+"/streams/orders", put, nil); code != http.StatusOK {
		t.Fatalf("leader stream put = %d", code)
	}
	if err := f.CatchUp(ctx); err != nil {
		t.Fatal(err)
	}
	if _, ok := followerSvc.Registry().Get("orders"); !ok {
		t.Fatal("stream did not replicate to follower")
	}
}

// TestFollowerResnapshotsWhenBehindWindow forces the leader's retention
// window past the follower: the delta fetch answers 410 and the follower
// falls back to a full snapshot.
func TestFollowerResnapshotsWhenBehindWindow(t *testing.T) {
	leaderSvc, leaderTS := newLeader(t, 1) // retain only one delta
	followerSvc, f := newFollower(t, leaderTS.URL)
	ctx := context.Background()

	if err := f.CatchUp(ctx); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 3; i++ {
		if code := postJSON(t, http.MethodPost, leaderTS.URL+"/ingest", ingestBody(t, 10+i), nil); code != http.StatusOK {
			t.Fatalf("ingest %d failed", i)
		}
	}
	// First round hits the 410 and re-bootstraps; the follower converges.
	if err := f.CatchUp(ctx); err != nil {
		t.Fatal(err)
	}
	st := f.Status()
	if st.Generation != leaderSvc.Generation() {
		t.Fatalf("follower generation %d, leader %d", st.Generation, leaderSvc.Generation())
	}
	if st.Snapshots != 2 {
		t.Fatalf("snapshots = %d, want 2 (bootstrap + window fallback)", st.Snapshots)
	}
	if !followerSvc.Ready() {
		t.Fatal("follower unready after re-snapshot")
	}
}

// TestFollowerWriteProxying sends mutating requests to the follower and
// expects them answered by the leader, with the result replicating back.
func TestFollowerWriteProxying(t *testing.T) {
	leaderSvc, leaderTS := newLeader(t, 0)
	followerSvc, f := newFollower(t, leaderTS.URL)
	ctx := context.Background()
	if err := f.CatchUp(ctx); err != nil {
		t.Fatal(err)
	}
	followerTS := httptest.NewServer(followerSvc.Handler())
	defer followerTS.Close()

	// PUT against the follower must land on the leader...
	put := map[string]any{"train": train(t, "guid", 100, 9)}
	if code := postJSON(t, http.MethodPut, followerTS.URL+"/streams/ids", put, nil); code != http.StatusOK {
		t.Fatalf("proxied stream put = %d", code)
	}
	if _, ok := leaderSvc.Registry().Get("ids"); !ok {
		t.Fatal("proxied PUT did not reach the leader registry")
	}
	// ...and replicate back to the follower on the next round.
	if err := f.CatchUp(ctx); err != nil {
		t.Fatal(err)
	}
	if _, ok := followerSvc.Registry().Get("ids"); !ok {
		t.Fatal("proxied stream did not replicate back to the follower")
	}

	// Same for /ingest.
	if code := postJSON(t, http.MethodPost, followerTS.URL+"/ingest", ingestBody(t, 21), nil); code != http.StatusOK {
		t.Fatalf("proxied ingest failed")
	}
	if err := f.CatchUp(ctx); err != nil {
		t.Fatal(err)
	}
	if g, lg := followerSvc.Generation(), leaderSvc.Generation(); g != lg || lg == 0 {
		t.Fatalf("follower generation %d, leader %d", g, lg)
	}
}

// TestFollowerCatchUpRace exercises the paths the ISSUE calls out under
// -race: the leader ingests while the follower is mid-apply and while
// /validate requests are in flight against the follower; afterwards the
// follower must converge to the leader's exact generation.
func TestFollowerCatchUpRace(t *testing.T) {
	leaderSvc, leaderTS := newLeader(t, 0)
	followerSvc, f := newFollower(t, leaderTS.URL)
	ctx := context.Background()
	if err := f.CatchUp(ctx); err != nil {
		t.Fatal(err)
	}
	followerTS := httptest.NewServer(followerSvc.Handler())
	defer followerTS.Close()

	const ingests = 5
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // writer: leader ingests
		defer wg.Done()
		for i := int64(0); i < ingests; i++ {
			if code := postJSON(t, http.MethodPost, leaderTS.URL+"/ingest", ingestBody(t, 100+i), nil); code != http.StatusOK {
				t.Errorf("ingest %d = %d", i, code)
			}
		}
	}()
	stop := make(chan struct{})
	replDone := make(chan struct{})
	go func() { // replicator: catch-up rounds racing the ingests
		defer close(replDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := f.CatchUp(ctx); err != nil {
				t.Errorf("catch-up: %v", err)
				return
			}
		}
	}()
	go func() { // readers: validation traffic against the follower
		defer wg.Done()
		vals := train(t, "timestamp_us", 80, 5)
		body := map[string]any{"train": vals, "values": vals}
		for i := 0; i < 30; i++ {
			var out struct {
				Report struct {
					Alarm bool `json:"alarm"`
				} `json:"report"`
			}
			if code := postJSON(t, http.MethodPost, followerTS.URL+"/validate", body, &out); code != http.StatusOK {
				t.Errorf("validate %d = %d", i, code)
				return
			}
			if out.Report.Alarm {
				t.Errorf("clean batch alarmed mid-replication")
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-replDone

	if err := f.CatchUp(ctx); err != nil {
		t.Fatal(err)
	}
	if g, lg := followerSvc.Generation(), leaderSvc.Generation(); g != lg || lg != ingests {
		t.Fatalf("follower generation %d, leader %d, want %d", g, lg, ingests)
	}
}
