package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"autovalidate/internal/cluster"
	"autovalidate/internal/journal"
	"autovalidate/internal/monitor"
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
// Both modes page with the endpoint's cursor: each poll sends the last
// page's next_after back as ?after= — one event ID for a member, one ID
// per member for the gateway — so nothing is missed or printed twice
// between polls.
func tailCmd(c *command, flags *flag.FlagSet) func([]string) {
	t := &tailer{prog: c.prog, out: os.Stdout, errOut: os.Stderr}
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

	// after is the cursor the next poll sends: the last page's
	// next_after.
	after string
}

func (t *tailer) poll(ctx context.Context) error {
	q := url.Values{}
	add := func(k, v string) {
		if v != "" {
			q.Set(k, v)
		}
	}
	add("stream", t.stream)
	add("kind", t.kind)
	add("trace", t.trace)
	if t.limit > 0 {
		add("limit", fmt.Sprint(t.limit))
	}
	add("after", t.after)
	path := "/events"
	if t.cluster {
		path = "/cluster/events"
	}
	u := t.base + path
	if len(q) > 0 {
		u += "?" + q.Encode()
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
	// Single-member events decode with an empty Member. /events numbers
	// its cursor; /cluster/events spells one ID per member.
	var page struct {
		Events       []cluster.ClusterEvent `json:"events"`
		MemberErrors []string               `json:"member_errors"`
		NextAfter    any                    `json:"next_after"`
	}
	dec := json.NewDecoder(resp.Body)
	dec.UseNumber()
	if err := dec.Decode(&page); err != nil {
		return fmt.Errorf("decoding %s: %w", u, err)
	}
	for _, warn := range page.MemberErrors {
		fmt.Fprintln(t.errOut, t.prog+": member unavailable:", warn)
	}
	for _, e := range page.Events {
		t.print(e)
	}
	switch next := page.NextAfter.(type) {
	case json.Number:
		t.after = next.String()
	case string:
		t.after = next
	}
	return nil
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
