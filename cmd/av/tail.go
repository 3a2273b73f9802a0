package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"autovalidate/internal/cluster"
	"autovalidate/internal/journal"
	"autovalidate/internal/monitor"
	"autovalidate/internal/service"
)

// tailCmd follows an Auto-Validate audit journal live: it polls a
// server's GET /events (or a gateway's GET /cluster/events with
// -cluster) and prints each new event as it lands — the terminal
// counterpart to grepping the journal directory after the fact.
//
//	av tail -url http://server:8077                     # follow one member's journal
//	av tail -url http://gateway:8070 -cluster           # merged cluster timeline
//	av tail -url ... -stream orders -kind decision      # only one stream's decisions
//	av tail -url ... -json | jq .                       # NDJSON for machines
//	av tail -url ... -once                              # print what's there and exit
//
// Single-member mode pages with the journal's event-ID cursor
// (?after=), so nothing is missed between polls. Cluster mode has no
// composite cursor — member journals number independently — so tail
// tracks the highest event ID and its time per member and asks for
// events since the oldest of those times (?since=), or from where the
// last full page was cut, so a page of events already printed cannot
// pin the view. It prints only novel events; a member restart that
// rewinds IDs is detected and the member's cursor reset.
func tailCmd(c *command, flags *flag.FlagSet) func([]string) {
	t := &tailer{prog: c.prog, out: os.Stdout, errOut: os.Stderr, seen: make(map[string]mark)}
	baseURL := flags.String("url", "http://localhost:8077", "server (or, with -cluster, gateway) base URL")
	flags.BoolVar(&t.cluster, "cluster", false, "follow the gateway's merged /cluster/events instead of one member's /events")
	flags.StringVar(&t.stream, "stream", "", "only events for this stream")
	flags.StringVar(&t.kind, "kind", "", "only events of this kind (decision, reinfer, ingest, delta_apply, snapshot_install, registry_put, registry_delete)")
	flags.StringVar(&t.trace, "trace", "", "only events with this trace ID")
	flags.BoolVar(&t.jsonOut, "json", false, "print events as NDJSON instead of the human form")
	interval := flags.Duration("interval", 2*time.Second, "poll interval")
	once := flags.Bool("once", false, "print the current journal contents and exit instead of following")
	flags.IntVar(&t.limit, "limit", 0, "events per poll (0 = server default)")
	return func([]string) {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()

		t.client = &http.Client{Timeout: 15 * time.Second}
		t.base = strings.TrimRight(*baseURL, "/")
		for {
			if err := t.poll(ctx); err != nil {
				if ctx.Err() != nil {
					return
				}
				fmt.Fprintln(t.errOut, c.prog+":", err)
				if *once {
					os.Exit(c.fail)
				}
			}
			if *once {
				return
			}
			select {
			case <-ctx.Done():
				return
			case <-time.After(*interval):
			}
		}
	}
}

// mark is a member's newest event seen by a cluster tail.
type mark struct {
	id   uint64
	time time.Time
}

type tailer struct {
	client  *http.Client
	base    string
	cluster bool
	stream  string
	kind    string
	trace   string
	jsonOut bool
	limit   int

	prog        string
	out, errOut io.Writer

	// after is the single-member cursor; seen the per-member high-water
	// marks for cluster mode, and floor the time the last full cluster
	// page was cut at.
	after uint64
	seen  map[string]mark
	floor time.Time
}

func (t *tailer) poll(ctx context.Context) error {
	q := make([]string, 0, 5)
	add := func(k, v string) {
		if v != "" {
			q = append(q, k+"="+v)
		}
	}
	add("stream", t.stream)
	add("kind", t.kind)
	add("trace", t.trace)
	if t.limit > 0 {
		add("limit", fmt.Sprint(t.limit))
	}
	path := "/events"
	if t.cluster {
		path = "/cluster/events"
		if since := t.since(); !since.IsZero() {
			add("since", since.UTC().Format(time.RFC3339Nano))
		}
	} else if t.after > 0 {
		add("after", fmt.Sprint(t.after))
	}
	u := t.base + path
	if len(q) > 0 {
		u += "?" + strings.Join(q, "&")
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
			return fmt.Errorf("%s: %s", resp.Status, e.Error)
		}
		return fmt.Errorf("%s: %s", u, resp.Status)
	}
	dec := json.NewDecoder(resp.Body)
	if !t.cluster {
		var page service.EventsResponse
		if err := dec.Decode(&page); err != nil {
			return fmt.Errorf("decoding %s: %w", u, err)
		}
		for _, e := range page.Events {
			t.print(cluster.ClusterEvent{Event: e})
		}
		if page.NextAfter > t.after {
			t.after = page.NextAfter
		}
		return nil
	}
	var page cluster.ClusterEventsResponse
	if err := dec.Decode(&page); err != nil {
		return fmt.Errorf("decoding %s: %w", u, err)
	}
	for _, warn := range page.MemberErrors {
		fmt.Fprintln(t.errOut, t.prog+": member unavailable:", warn)
	}
	for _, e := range page.Events {
		if t.novel(e) {
			t.print(e)
		}
	}
	if cut, ok := pageCut(page.Events, t.limit); ok {
		t.floor = cut
	}
	return nil
}

// since is where the next cluster page starts: the oldest of the
// members' newest-seen event times, raised to the floor. Members answer
// oldest-first up to a page limit, so without it a member holding more
// than a page of events would resend the same oldest page forever.
// Taking the oldest mark keeps a member whose clock lags in view; the
// per-member ID marks drop the overlap.
func (t *tailer) since() time.Time {
	var oldest time.Time
	for _, m := range t.seen {
		if oldest.IsZero() || m.time.Before(oldest) {
			oldest = m.time
		}
	}
	if oldest.Before(t.floor) {
		return t.floor
	}
	return oldest
}

// pageCut reports where a cluster page that hit its limit was cut: the
// gateway caps the merged page at -limit, and without one each member
// caps its own at the journal default. Every event before the cut came
// back in the page, so the next page starts there — otherwise a quiet
// member's old mark would pin since while a busy member fills every
// page with events already printed.
func pageCut(evs []cluster.ClusterEvent, limit int) (time.Time, bool) {
	if limit > 0 {
		if len(evs) < limit {
			return time.Time{}, false
		}
		return evs[len(evs)-1].Time, true
	}
	n := make(map[string]int)
	var cut time.Time
	for _, e := range evs {
		n[e.Member]++
		if n[e.Member] == journal.DefaultLimit && (cut.IsZero() || e.Time.Before(cut)) {
			cut = e.Time
		}
	}
	return cut, !cut.IsZero()
}

// novel dedupes cluster polls: member journals number independently,
// so the high-water mark is tracked per member. An ID below the mark
// after a member restarted with a fresh journal resets that member's
// cursor so its new events still show.
func (t *tailer) novel(e cluster.ClusterEvent) bool {
	high, ok := t.seen[e.Member]
	if ok && e.ID <= high.id {
		if e.ID < high.id/2 && e.ID <= 1 {
			t.seen[e.Member] = mark{e.ID, e.Time} // journal rewound: start over
			return true
		}
		return false
	}
	t.seen[e.Member] = mark{e.ID, e.Time}
	return true
}

// print writes one event; Member is empty outside cluster mode.
func (t *tailer) print(e cluster.ClusterEvent) {
	if t.jsonOut {
		var v any = e
		if e.Member == "" {
			v = e.Event // single-member events carry no member field
		}
		b, err := json.Marshal(v)
		if err != nil {
			fmt.Fprintln(t.errOut, t.prog+":", err)
			return
		}
		fmt.Fprintln(t.out, string(b))
		return
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s  #%d  %-16s", e.Time.Format(time.RFC3339), e.ID, e.Kind)
	if e.Stream != "" {
		fmt.Fprintf(&sb, "  stream=%s", e.Stream)
	}
	if e.Action != "" {
		fmt.Fprintf(&sb, "  action=%s", e.Action)
	}
	if e.TraceID != "" {
		fmt.Fprintf(&sb, "  trace=%s", e.TraceID)
	}
	if e.Member != "" {
		fmt.Fprintf(&sb, "  member=%s", e.Member)
	}
	if summary := detailSummary(e.Event); summary != "" {
		fmt.Fprintf(&sb, "  %s", summary)
	}
	fmt.Fprintln(t.out, sb.String())
}

// detailSummary condenses a decision's forensics to one line: counts
// plus the top failure class, e.g. "50/50 missed: charset@tok1(-) ×48".
func detailSummary(e journal.Event) string {
	if e.Kind != journal.KindDecision || len(e.Detail) == 0 {
		return ""
	}
	var dec monitor.Decision
	if err := json.Unmarshal(e.Detail, &dec); err != nil {
		return ""
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d/%d missed", dec.Verdict.NonConforming, dec.Verdict.Total)
	if dec.ConsecutiveAlarms > 1 {
		fmt.Fprintf(&sb, " (run of %d)", dec.ConsecutiveAlarms)
	}
	if a := dec.Verdict.Attribution; a != nil && len(a.Classes) > 0 {
		c := a.Classes[0]
		fmt.Fprintf(&sb, ": %s@tok%d(%s) ×%d", c.Kind, c.Token, c.TokenStr, c.Count)
	}
	return sb.String()
}
