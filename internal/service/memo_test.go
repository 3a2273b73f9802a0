package service

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"weak"

	"autovalidate/internal/index"
	"autovalidate/internal/registry"
)

// Each publish — /ingest, an applied poll, an installed snapshot —
// serves an empty leaf memo, and the superseded snapshot's memo is
// garbage once no request holds it.
func TestPublishStartsAnEmptyMemo(t *testing.T) {
	srv := ingestServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	seed := int64(0)
	for _, publish := range []struct {
		name string
		do   func()
	}{
		{"/ingest", func() {
			if code := post(t, ts, "/ingest", ingestBatch("ipv4", 30, 70, t), nil); code != http.StatusOK {
				t.Fatalf("/ingest: status %d", code)
			}
		}},
		{"ApplyPoll", func() {
			d := index.BuildDelta(srv.Index(), columnBatch(t, "ipv4", 2, 20), index.BuildOptions{})
			if err := srv.ApplyPoll(d.Base+1, []*index.Delta{d}, nil); err != nil {
				t.Fatal(err)
			}
		}},
		{"InstallSnapshot", func() { srv.InstallSnapshot(srv.Index().Clone(), registry.New()) }},
	} {
		seed++
		if code := post(t, ts, "/infer", InferRequest{Values: trainValues(t, "timestamp_us", 100, seed)}, nil); code != http.StatusOK {
			t.Fatalf("%s: /infer: status %d", publish.name, code)
		}
		old := weak.Make(srv.snap.Load().memo)
		if n := old.Value().Len(); n == 0 {
			t.Fatalf("%s: /infer left the served memo empty", publish.name)
		}
		publish.do()
		if n := srv.snap.Load().memo.Len(); n != 0 {
			t.Errorf("%s: the new snapshot's memo holds %d leaves", publish.name, n)
		}
		runtime.GC()
		if old.Value() != nil {
			t.Errorf("%s: the superseded snapshot's memo is still reachable", publish.name)
		}
	}
}

// A request that overrides r, m or θ infers with a memo of its own and
// leaves the snapshot's alone; one under the server's options fills it.
func TestInferOverrideLeavesMemoUntouched(t *testing.T) {
	srv := ingestServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	r, m, theta := 0.2, 3, 0.05
	for i, params := range []RuleParams{{R: &r}, {M: &m}, {Theta: &theta}, {}} {
		req := InferRequest{Values: trainValues(t, "timestamp_us", 100, int64(80+i)), RuleParams: params}
		if code := post(t, ts, "/infer", req, nil); code != http.StatusOK {
			t.Fatalf("/infer %+v: status %d", params, code)
		}
		n := srv.snap.Load().memo.Len()
		if overrides := params != (RuleParams{}); overrides && n != 0 {
			t.Errorf("/infer with %+v left %d leaves in the served memo", params, n)
		} else if !overrides && n == 0 {
			t.Error("/infer under the server's options left the served memo empty")
		}
	}
}
