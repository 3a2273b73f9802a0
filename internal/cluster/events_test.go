package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strconv"
	"testing"
	"time"

	"autovalidate/internal/journal"
)

// eventsBackend serves canned /events pages, honouring the after and
// limit parameters as a member does, and records the query it was last
// asked with.
func eventsBackend(t *testing.T, events []journal.Event, status int) (*httptest.Server, *string) {
	t.Helper()
	var gotQuery string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/events" {
			w.WriteHeader(http.StatusNotFound)
			return
		}
		gotQuery = r.URL.RawQuery
		if status != http.StatusOK {
			w.WriteHeader(status)
			return
		}
		after, _ := strconv.ParseUint(r.URL.Query().Get("after"), 10, 64)
		limit, _ := strconv.Atoi(r.URL.Query().Get("limit"))
		page := []journal.Event{}
		for _, e := range events {
			if e.ID > after && (limit == 0 || len(page) < limit) {
				page = append(page, e)
			}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"events": page})
	}))
	t.Cleanup(ts.Close)
	return ts, &gotQuery
}

// TestClusterEventsMergeSort: the gateway fans the journal query to
// every member, forwards the filters verbatim, merges the pages by
// timestamp, and annotates each event with the member that holds it. A
// journal-less member (404) contributes nothing silently; a failing
// member is reported without sinking the whole view.
func TestClusterEventsMergeSort(t *testing.T) {
	t0 := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	a, aQuery := eventsBackend(t, []journal.Event{
		{ID: 1, Time: t0, Kind: journal.KindDecision, Stream: "s1", Action: "alarm", TraceID: "tr-a"},
		{ID: 2, Time: t0.Add(2 * time.Second), Kind: journal.KindDecision, Stream: "s1", Action: "accept"},
	}, http.StatusOK)
	b, _ := eventsBackend(t, []journal.Event{
		{ID: 1, Time: t0.Add(time.Second), Kind: journal.KindDecision, Stream: "s2", Action: "quarantine"},
	}, http.StatusOK)
	noJournal, _ := eventsBackend(t, nil, http.StatusNotFound)
	broken, _ := eventsBackend(t, nil, http.StatusInternalServerError)

	g := gatewayOver(t, a.URL, b.URL, noJournal.URL, broken.URL)
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()

	resp, err := http.Get(gw.URL + "/cluster/events?kind=decision&stream=s1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/cluster/events: status %d", resp.StatusCode)
	}
	var out ClusterEventsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}

	if *aQuery != "kind=decision&stream=s1" {
		t.Errorf("filters not forwarded verbatim: member saw %q", *aQuery)
	}
	if len(out.Events) != 3 {
		t.Fatalf("merged %d events, want 3: %+v", len(out.Events), out.Events)
	}
	order := make([]string, len(out.Events))
	for i, e := range out.Events {
		order[i] = e.Action
		if e.Member == "" {
			t.Errorf("event %d missing member annotation", i)
		}
		if i > 0 && out.Events[i].Time.Before(out.Events[i-1].Time) {
			t.Errorf("merged timeline out of order at %d: %v before %v", i, out.Events[i].Time, out.Events[i-1].Time)
		}
	}
	if fmt.Sprint(order) != "[alarm quarantine accept]" {
		t.Errorf("merge order = %v, want [alarm quarantine accept]", order)
	}
	if out.Events[0].Member != a.URL || out.Events[1].Member != b.URL {
		t.Errorf("member annotations wrong: %s then %s", out.Events[0].Member, out.Events[1].Member)
	}
	if out.Events[0].TraceID != "tr-a" {
		t.Errorf("trace id lost in fan-in: %+v", out.Events[0])
	}
	// The journal-less 404 member still counts as answering (it has
	// nothing to contribute); the 500 member is exactly one error.
	if out.Members != 3 || len(out.MemberErrors) != 1 {
		t.Errorf("members=%d errors=%v, want 3 answering and 1 error", out.Members, out.MemberErrors)
	}

	// Merged limit applies after the sort.
	resp2, err := http.Get(gw.URL + "/cluster/events?limit=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var limited ClusterEventsResponse
	if err := json.NewDecoder(resp2.Body).Decode(&limited); err != nil {
		t.Fatal(err)
	}
	if len(limited.Events) != 1 || limited.Events[0].Action != "alarm" {
		t.Errorf("limit=1 returned %+v, want just the oldest event", limited.Events)
	}

	if code, _ := fetchVia(t, gw, http.MethodGet, "/cluster/events?limit=x"); code != http.StatusBadRequest {
		t.Errorf("bad limit: status %d, want 400", code)
	}
}

// TestClusterEventsCursor: paging the merged view with limit=1 and the
// returned cursor yields every member event exactly once, each member
// asked from its own ID, even where a member's clock steps back. A
// failing member keeps the ID it was asked from, a member URL the
// gateway does not know drops out of the cursor, and a malformed
// cursor answers 400.
func TestClusterEventsCursor(t *testing.T) {
	t0 := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	a, aQuery := eventsBackend(t, []journal.Event{
		{ID: 1, Time: t0},
		{ID: 2, Time: t0.Add(2 * time.Second)},
		{ID: 3, Time: t0.Add(-time.Hour)},
	}, http.StatusOK)
	b, _ := eventsBackend(t, []journal.Event{
		{ID: 1, Time: t0.Add(time.Second)},
		{ID: 2, Time: t0.Add(3 * time.Second)},
	}, http.StatusOK)
	broken, brokenQuery := eventsBackend(t, nil, http.StatusInternalServerError)
	gw := httptest.NewServer(gatewayOver(t, a.URL, b.URL, broken.URL).Handler())
	defer gw.Close()
	name := map[string]string{a.URL: "a", b.URL: "b"}

	cursor := url.Values{broken.URL: {"7"}, "http://unknown.invalid": {"9"}}.Encode()
	var got []string
	for range 10 {
		resp, err := http.Get(gw.URL + "/cluster/events?limit=1&after=" + url.QueryEscape(cursor))
		if err != nil {
			t.Fatal(err)
		}
		var out ClusterEventsResponse
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(out.MemberErrors) != 1 {
			t.Errorf("member errors %v, want the broken member's", out.MemberErrors)
		}
		if len(out.Events) == 0 {
			break
		}
		for _, e := range out.Events {
			got = append(got, fmt.Sprintf("%s#%d", name[e.Member], e.ID))
		}
		cursor = out.NextAfter
	}
	if want := []string{"a#1", "b#1", "a#2", "a#3", "b#2"}; !slices.Equal(got, want) {
		t.Errorf("paged %v, want %v", got, want)
	}
	want := url.Values{a.URL: {"3"}, b.URL: {"2"}, broken.URL: {"7"}}.Encode()
	if cursor != want {
		t.Errorf("final cursor %q, want %q", cursor, want)
	}
	if *aQuery != "after=3&limit=1" || *brokenQuery != "after=7&limit=1" {
		t.Errorf("members asked %q and %q, want each from its own ID", *aQuery, *brokenQuery)
	}

	for _, bad := range []string{"%zz", url.Values{a.URL: {"x"}}.Encode(), url.Values{a.URL: {"-1"}}.Encode()} {
		if code, _ := fetchVia(t, gw, http.MethodGet, "/cluster/events?after="+url.QueryEscape(bad)); code != http.StatusBadRequest {
			t.Errorf("cursor %q: status %d, want 400", bad, code)
		}
	}
}
