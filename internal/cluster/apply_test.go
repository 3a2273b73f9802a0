package cluster

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"autovalidate/internal/corpus"
	"autovalidate/internal/index"
	"autovalidate/internal/monitor"
	"autovalidate/internal/obs/promtest"
	"autovalidate/internal/service"
)

// swappable serves, behind one URL, whichever handler set installed
// last: a leader restarted in place, or a hand-made replication answer.
func swappable(t *testing.T) (set func(http.Handler), url string) {
	t.Helper()
	var current atomic.Pointer[http.Handler]
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*current.Load()).ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return func(h http.Handler) { current.Store(&h) }, ts.URL
}

// restartableLeader serves a leader behind one URL; each start replaces
// it with a fresh leader process over the same index, as a restart from
// the index file does, and returns the new leader's service.
func restartableLeader(t *testing.T) (start func() *service.Server, url string) {
	t.Helper()
	set, url := swappable(t)
	return func() *service.Server {
		svc, h := newLeaderHandler(t, 0)
		set(h)
		return svc
	}, url
}

// scrape GETs a path from a service's handler and returns the body.
func scrape(t *testing.T, svc *service.Server, path string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", path, rec.Code, rec.Body)
	}
	return rec.Body.String()
}

// TestFollowerMetricsAfterLeaderRestart: a leader restarted from its
// index file reports generation 0 again. Once the follower has
// bootstrapped from it, /metrics must report that generation and no lag,
// not the old leader's generation 2 as a lag that never closes.
func TestFollowerMetricsAfterLeaderRestart(t *testing.T) {
	start, leaderURL := restartableLeader(t)
	start()
	followerSvc, f := newFollower(t, leaderURL)
	ctx := context.Background()
	if err := f.CatchUp(ctx); err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{51, 52} {
		if code := postJSON(t, http.MethodPost, leaderURL+"/ingest", ingestBody(t, seed), nil); code != http.StatusOK {
			t.Fatalf("leader ingest %d = %d", seed, code)
		}
	}
	if err := f.CatchUp(ctx); err != nil {
		t.Fatal(err)
	}
	if g := followerSvc.Generation(); g != 2 {
		t.Fatalf("follower generation %d before the restart, want 2", g)
	}

	start()
	if err := f.CatchUp(ctx); err != nil {
		t.Fatal(err)
	}
	body := scrape(t, followerSvc, "/metrics")
	if errs := promtest.Lint(body); len(errs) != 0 {
		t.Fatalf("follower exposition lint: %v", errs)
	}
	for _, want := range []string{
		"autovalidate_index_generation 0\n",
		"autovalidate_replication_leader_generation 0\n",
		"autovalidate_replication_generations_behind 0\n",
		"autovalidate_snapshot_installs_total 2\n",
		"autovalidate_replicated_deltas_total 2\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("follower /metrics lacks %q", strings.TrimSpace(want))
		}
	}
	if st := f.Status(); st.Snapshots != 2 || st.Deltas != 2 || !st.Bootstrapped {
		t.Errorf("status = %+v, want 2 snapshots and 2 deltas, as /metrics counts", st)
	}
}

// TestFollowerHistoryFollowsTheRule: a leader restarted without its
// registry file numbers stream versions from 1 again. A stream it
// registers under another rule must start a fresh history on the
// follower, though its version number is the one the old history was
// kept under; a stream registered again under the same rule keeps its
// history.
func TestFollowerHistoryFollowsTheRule(t *testing.T) {
	start, leaderURL := restartableLeader(t)
	start()
	followerSvc, f := newFollower(t, leaderURL)
	followerTS := httptest.NewServer(followerSvc.Handler())
	defer followerTS.Close()
	ctx := context.Background()
	if err := f.CatchUp(ctx); err != nil {
		t.Fatal(err)
	}
	put := func(stream, domain string, seed int64) {
		t.Helper()
		body := map[string]any{"train": train(t, domain, 100, seed)}
		if code := postJSON(t, http.MethodPut, leaderURL+"/streams/"+stream, body, nil); code != http.StatusOK {
			t.Fatalf("leader PUT %s = %d", stream, code)
		}
	}
	history := func(stream string) monitor.History {
		t.Helper()
		var h monitor.History
		if code := postJSON(t, http.MethodGet, followerTS.URL+"/streams/"+stream+"/history", nil, &h); code != http.StatusOK {
			t.Fatalf("follower history of %s = %d", stream, code)
		}
		return h
	}

	put("orders", "timestamp_us", 7)
	put("stable", "guid", 9)
	if err := f.CatchUp(ctx); err != nil {
		t.Fatal(err)
	}
	// orders takes guid batches against its timestamp rule (alarms);
	// stable takes clean guid batches.
	for i := range int64(3) {
		for _, stream := range []string{"orders", "stable"} {
			check := service.StreamCheckRequest{Values: train(t, "guid", 50, 20+i)}
			if code := postJSON(t, http.MethodPost, followerTS.URL+"/streams/"+stream+"/check", check, nil); code != http.StatusOK {
				t.Fatalf("follower check of %s = %d", stream, code)
			}
		}
	}
	if h := history("orders"); h.Batches != 3 || h.ConsecAlarms != 3 {
		t.Fatalf("orders before the restart: %d batches, %d consecutive alarms; want 3, 3", h.Batches, h.ConsecAlarms)
	}
	stable := history("stable")
	if stable.Batches != 3 {
		t.Fatalf("stable before the restart: %d batches, want 3", stable.Batches)
	}

	start()
	put("orders", "guid", 7)
	put("stable", "guid", 9)
	if err := f.CatchUp(ctx); err != nil {
		t.Fatal(err)
	}
	if st, _ := followerSvc.Registry().Get("orders"); st.Version != 1 {
		t.Fatalf("orders at version %d on the follower, want 1 (the restarted leader's)", st.Version)
	}
	if h := history("orders"); h.Batches != 0 || h.ConsecAlarms != 0 {
		t.Errorf("orders under its new rule: %d batches, %d consecutive alarms from the old rule; want a fresh history", h.Batches, h.ConsecAlarms)
	}
	if h := history("stable"); h.Batches != stable.Batches || h.Values != stable.Values {
		t.Errorf("stable under its unchanged rule: %d batches of %d values, want its %d of %d kept",
			h.Batches, h.Values, stable.Batches, stable.Values)
	}
}

// TestFollowerAppliesAChainOnce: a round that brings three deltas folds
// them into one clone, published once. A reader meanwhile sees the
// generation before the round or after it, never one between; the rule
// cache of the snapshot before the round is gone; and the follower's
// index equals the leader's entry for entry.
func TestFollowerAppliesAChainOnce(t *testing.T) {
	leaderSvc, leaderTS := newLeader(t, 0)
	followerSvc, f := newFollower(t, leaderTS.URL)
	followerTS := httptest.NewServer(followerSvc.Handler())
	defer followerTS.Close()
	ctx := context.Background()
	if err := f.CatchUp(ctx); err != nil {
		t.Fatal(err)
	}
	infer := map[string]any{"values": train(t, "timestamp_us", 100, 5)}
	cached := func() bool {
		t.Helper()
		var out struct {
			Cached bool `json:"cached"`
		}
		if code := postJSON(t, http.MethodPost, followerTS.URL+"/infer", infer, &out); code != http.StatusOK {
			t.Fatalf("follower /infer = %d", code)
		}
		return out.Cached
	}
	if cached() || !cached() {
		t.Fatal("the follower's rule cache does not answer a repeated /infer")
	}
	for _, seed := range []int64{61, 62, 63} {
		if code := postJSON(t, http.MethodPost, leaderTS.URL+"/ingest", ingestBody(t, seed), nil); code != http.StatusOK {
			t.Fatalf("leader ingest %d = %d", seed, code)
		}
	}

	base := followerSvc.Generation()
	var seen sync.Map
	stop := make(chan struct{})
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		for {
			seen.Store(followerSvc.Generation(), true)
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	err := f.CatchUp(ctx)
	close(stop)
	<-watched
	if err != nil {
		t.Fatal(err)
	}
	if g := followerSvc.Generation(); g != base+3 {
		t.Fatalf("follower generation %d, want %d", g, base+3)
	}
	if st := f.Status(); st.Deltas != 3 {
		t.Fatalf("status = %+v, want 3 deltas", st)
	}
	if !sameEvidence(followerSvc.Index(), leaderSvc.Index()) {
		t.Fatalf("follower holds %d patterns, leader %d", followerSvc.Index().Size(), leaderSvc.Index().Size())
	}
	seen.Range(func(g, _ any) bool {
		if g != base && g != base+3 {
			t.Errorf("a reader saw generation %d between %d and %d", g, base, base+3)
		}
		return true
	})
	if cached() {
		t.Error("a rule cached before the round is still served after it")
	}
}

// TestFollowerRejectsABrokenChainWhole: a chain whose middle delta does
// not extend the generation before it is refused whole: the first delta
// is not applied on its own, and the generation, the index and the
// counters stay as they were.
func TestFollowerRejectsABrokenChainWhole(t *testing.T) {
	set, leaderURL := swappable(t)
	_, h := newLeaderHandler(t, 0)
	set(h)
	followerSvc, f := newFollower(t, leaderURL)
	ctx := context.Background()
	if err := f.CatchUp(ctx); err != nil {
		t.Fatal(err)
	}
	before, status := followerSvc.Index(), f.Status()
	from := before.Generation
	cols := []*corpus.Column{corpus.NewColumn("t", "addr", train(t, "ipv4", 30, 71))}
	first := index.BuildDelta(before, cols, index.BuildOptions{})
	chain := []*index.Delta{
		first,
		{Evidence: first.Evidence, Base: from + 5}, // not from+1
		{Evidence: first.Evidence, Base: from + 2},
	}
	set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		payloads := make([][]byte, len(chain))
		for i, d := range chain {
			var buf bytes.Buffer
			if err := index.EncodeDelta(&buf, d); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			payloads[i] = buf.Bytes()
		}
		head := deltasHeader{From: from, Count: len(chain), LeaderGeneration: from + 3, RegistryEpoch: status.RegistryEpoch}
		_ = writeArtifact(w, magicDeltas, head, payloads...)
	}))
	if err := f.CatchUp(ctx); err == nil {
		t.Fatal("a chain with a gap in the middle was applied")
	}
	if followerSvc.Index() != before || followerSvc.Generation() != from {
		t.Fatalf("follower moved to generation %d (%d patterns); want generation %d untouched",
			followerSvc.Generation(), followerSvc.Index().Size(), from)
	}
	st := f.Status()
	st.LastError = status.LastError
	if st != status {
		t.Fatalf("status after the refused chain = %+v, want %+v", st, status)
	}
	if body := scrape(t, followerSvc, "/metrics"); !strings.Contains(body, "autovalidate_replicated_deltas_total 0\n") {
		t.Error("/metrics counts a delta of the refused chain")
	}
}
