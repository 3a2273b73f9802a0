package cluster

// Cluster-wide event aggregation: the gateway pins each stream to one
// member by consistent hash, so any single member's journal holds only
// a slice of the cluster's forensic record. GET /cluster/events fans a
// journal read out to every member and merges the pages by event time,
// giving operators one timeline — which stream alarmed, on which
// member, under which trace — without knowing the ring.
//
// Member journals number their events independently, so the merged
// view's cursor is one journal ID per member: each page carries it as
// next_after, and passing it back as ?after= asks every member for the
// events after its own ID. Every member contributes a prefix of its
// ID-ordered page, so paging neither skips nor repeats an event,
// whatever the members' clocks say.

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"maps"
	"net/http"
	"net/url"
	"strconv"
	"sync"

	"autovalidate/internal/journal"
	"autovalidate/internal/obs"
)

// ClusterEvent is one member's journal event, annotated with the
// member that recorded it.
type ClusterEvent struct {
	journal.Event
	Member string `json:"member"`
}

// ClusterEventsResponse is the merged, time-ordered cluster timeline.
type ClusterEventsResponse struct {
	Events []ClusterEvent `json:"events"`
	// Members counts the members that answered; MemberErrors lists the
	// ones that did not (their events are missing from this view).
	Members      int      `json:"members"`
	MemberErrors []string `json:"member_errors,omitempty"`
	// NextAfter is the cursor of the next page: the last event ID taken
	// from each member, URL-query encoded by member URL. A member that
	// contributed nothing, or did not answer, keeps the ID it was asked
	// from.
	NextAfter string `json:"next_after"`
}

// memberEventsPage mirrors the member-side EventsResponse shape.
type memberEventsPage struct {
	Events []journal.Event `json:"events"`
}

// handleClusterEvents serves GET /cluster/events: fan out the journal
// query to every member, each from its own cursor ID, and merge the
// pages by timestamp. The stream, kind, trace, since, and limit query
// parameters forward verbatim; limit additionally caps the merged
// result.
func (g *Gateway) handleClusterEvents(w http.ResponseWriter, r *http.Request) {
	sp, sc := g.tracer.StartServerSpan(r, "gateway.cluster_events")
	defer sp.End()
	sp.SetRoute("GET /cluster/events")
	w.Header().Set(obs.TraceIDHeader, sc.TraceID.String())

	q := r.URL.Query()
	limit := 0
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			badRequest(w, "bad limit: "+v)
			return
		}
		limit = n
	}
	var after map[string]uint64
	if v := q.Get("after"); v != "" {
		var err error
		if after, err = parseCursor(v); err != nil {
			badRequest(w, "bad after cursor: "+err.Error())
			return
		}
	}
	// memberQuery is what member m is asked: the request's query, with
	// the cursor replaced by m's own ID (none while it is 0).
	memberQuery := func(m string) string {
		if after == nil {
			return r.URL.RawQuery
		}
		mq := maps.Clone(q)
		mq.Del("after")
		if id := after[m]; id > 0 {
			mq.Set("after", strconv.FormatUint(id, 10))
		}
		return mq.Encode()
	}

	type result struct {
		member string
		page   memberEventsPage
		err    error
	}
	results := make([]result, len(g.members))
	var wg sync.WaitGroup
	for i, m := range g.members {
		wg.Add(1)
		go func(i int, m *member) {
			defer wg.Done()
			results[i] = result{member: m.url.String()}
			u := *m.url
			u.Path = singleJoin(u.Path, "/events")
			u.RawQuery = memberQuery(results[i].member)
			req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, u.String(), nil)
			if err != nil {
				results[i].err = err
				return
			}
			req.Header.Set(obs.TraceparentHeader, sc.Traceparent())
			resp, err := g.client.Do(req)
			if err != nil {
				results[i].err = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				// A member without a journal answers 404: it simply has no
				// events to contribute, which is not a fan-in failure.
				io.Copy(io.Discard, resp.Body)
				if resp.StatusCode != http.StatusNotFound {
					results[i].err = fmt.Errorf("member %s: %s", m.url, resp.Status)
				}
				return
			}
			if err := json.NewDecoder(resp.Body).Decode(&results[i].page); err != nil {
				results[i].err = fmt.Errorf("member %s: decoding events: %w", m.url, err)
			}
		}(i, m)
	}
	wg.Wait()

	out := ClusterEventsResponse{Events: []ClusterEvent{}}
	for i, res := range results {
		if res.err != nil {
			results[i].page.Events = nil // a half-decoded page is not a page
			out.MemberErrors = append(out.MemberErrors, res.err.Error())
			sp.SetError(res.err)
			g.log.Warn("cluster events fan-in member failed", slog.String("error", res.err.Error()))
			continue
		}
		out.Members++
	}
	// One cluster timeline: take the earliest head of the members' pages
	// until the limit, so each member contributes a prefix of its page
	// and its cursor can stop exactly at the last event taken.
	taken := make([]int, len(results))
	for limit == 0 || len(out.Events) < limit {
		var next ClusterEvent
		from := -1
		for i, res := range results {
			if taken[i] == len(res.page.Events) {
				continue
			}
			head := ClusterEvent{Event: res.page.Events[taken[i]], Member: res.member}
			if from < 0 || before(head, next) {
				next, from = head, i
			}
		}
		if from < 0 {
			break
		}
		out.Events = append(out.Events, next)
		taken[from]++
	}
	cursor := url.Values{}
	for i, res := range results {
		id := after[res.member]
		if taken[i] > 0 {
			id = res.page.Events[taken[i]-1].ID
		}
		if id > 0 {
			cursor.Set(res.member, strconv.FormatUint(id, 10))
		}
	}
	out.NextAfter = cursor.Encode()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// before orders the cluster timeline: by timestamp, ties broken by
// member then per-member ID so the order is deterministic across
// refreshes.
func before(a, b ClusterEvent) bool {
	if !a.Time.Equal(b.Time) {
		return a.Time.Before(b.Time)
	}
	if a.Member != b.Member {
		return a.Member < b.Member
	}
	return a.ID < b.ID
}

// parseCursor decodes a next_after cursor into one journal ID per
// member URL.
func parseCursor(s string) (map[string]uint64, error) {
	vals, err := url.ParseQuery(s)
	if err != nil {
		return nil, err
	}
	after := make(map[string]uint64, len(vals))
	for m, ids := range vals {
		for _, id := range ids {
			n, err := strconv.ParseUint(id, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("member %s: bad event ID %q", m, id)
			}
			after[m] = n
		}
	}
	return after, nil
}

func badRequest(w http.ResponseWriter, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusBadRequest)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
