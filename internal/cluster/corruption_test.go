package cluster

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"autovalidate/internal/corpus"
	"autovalidate/internal/domain"
	"autovalidate/internal/frame/frametest"
	"autovalidate/internal/index"
	"autovalidate/internal/pattern"
	"autovalidate/internal/service"
	"autovalidate/internal/validate"
)

// sameEvidence reports whether a and b hold the same entries.
func sameEvidence(a, b *index.Index) bool {
	if a.Size() != b.Size() {
		return false
	}
	for k, ea := range a.All() {
		if eb, ok := b.Lookup(k); !ok || ea != eb {
			return false
		}
	}
	return true
}

// TestCorruptionTable runs a snapshot and a delta chain carrying the
// registry — both small, so every byte can be damaged in turn — through
// the shared corruption table. Damage in transit is an error, or (a
// flipped digit in a JSON header, which the wire format does not
// checksum) the same index, streams and deltas under different counters;
// never other evidence, a shorter chain, or a panic.
func TestCorruptionTable(t *testing.T) {
	base := index.Build([]*corpus.Column{corpus.NewColumn("t1", "id", []string{"a-01", "b-22", "c-33"})}, index.DefaultBuildOptions())
	svc, err := service.New(service.Config{Index: base, Options: smallOptions(), DeltaLog: index.NewDeltaLog(0)})
	if err != nil {
		t.Fatal(err)
	}
	pat, err := pattern.Parse("<letter>{1}-<digit>{2}")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Registry().PutDomain("ids", &validate.Rule{Pattern: pat, TrainTotal: 3, Strategy: "FMDV"}, *smallOptions(), 0, domain.Detection{}); err != nil {
		t.Fatal(err)
	}
	l, err := NewLeader(svc)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(l.Handler())
	defer ts.Close()

	var snap bytes.Buffer
	if err := WriteSnapshot(&snap, svc); err != nil {
		t.Fatal(err)
	}
	frametest.Corrupt(t, snap.Bytes(), func(damage string, bad []byte) {
		idx, reg, _, err := ReadSnapshot(bytes.NewReader(bad), int64(len(bad)))
		if err != nil {
			return
		}
		if len(bad) < snap.Len() || !sameEvidence(idx, base) || !reflect.DeepEqual(reg.Names(), []string{"ids"}) {
			t.Errorf("snapshot %s: installed as a different snapshot", damage)
		}
	})

	for _, vals := range [][]string{{"XX", "YY"}, {"7", "8"}} {
		body := map[string]any{"tables": []map[string]any{{
			"name": "arrival", "columns": []map[string]any{{"name": "c", "values": vals}},
		}}}
		if code := postJSON(t, http.MethodPost, ts.URL+"/ingest", body, nil); code != http.StatusOK {
			t.Fatalf("leader ingest = %d", code)
		}
	}
	// A stale epoch, so the chain carries the registry after its deltas.
	resp, err := http.Get(ts.URL + "/replication/deltas?from=0&epoch=0&leader=" + l.id)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("delta fetch: status %d, %v", resp.StatusCode, err)
	}
	_, want, reg, err := readDeltas(bytes.NewReader(chain), int64(len(chain)))
	if err != nil || len(want) != 2 || reg == nil {
		t.Fatalf("intact chain: %d deltas, registry %v, %v; want 2 and the registry", len(want), reg != nil, err)
	}
	frametest.Corrupt(t, chain, func(damage string, bad []byte) {
		_, got, reg, err := readDeltas(bytes.NewReader(bad), int64(len(bad)))
		if err != nil {
			if got != nil || reg != nil {
				t.Errorf("chain %s: a failed read still returned %d deltas, registry %v", damage, len(got), reg != nil)
			}
			return
		}
		if len(bad) < len(chain) || len(got) != len(want) {
			t.Fatalf("chain %s: read as a chain of %d deltas", damage, len(got))
		}
		for i := range want {
			if !sameEvidence(got[i].Evidence, want[i].Evidence) {
				t.Errorf("chain %s: delta %d carries other evidence", damage, i+1)
			}
		}
		if reg == nil || !reflect.DeepEqual(reg.Names(), []string{"ids"}) {
			t.Errorf("chain %s: read with other streams", damage)
		}
	})
}
