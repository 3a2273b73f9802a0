package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"autovalidate/internal/index"
	"autovalidate/internal/obs"
	"autovalidate/internal/obs/promtest"
	"autovalidate/internal/service"
)

// tracedCluster wires a leader, one follower (write-proxying to the
// leader), and a gateway over the follower — all with always-sampling
// tracers — so tests can follow a single trace across every hop.
type tracedCluster struct {
	leaderSvc, followerSvc *service.Server
	follower               *Follower
	gw                     *Gateway
	gwTracer               *obs.Tracer
	gwTS, followerTS       *httptest.Server
}

func newTracedCluster(t *testing.T) *tracedCluster {
	t.Helper()
	leaderSvc, err := service.New(service.Config{
		Index:    lakeIndex(t).Clone(),
		Options:  smallOptions(),
		DeltaLog: index.NewDeltaLog(0),
		Tracer:   obs.NewTracer(obs.TracerConfig{SampleEvery: 1}),
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLeader(leaderSvc)
	if err != nil {
		t.Fatal(err)
	}
	leaderTS := httptest.NewServer(l.Handler())
	t.Cleanup(leaderTS.Close)

	lu, err := url.Parse(leaderTS.URL)
	if err != nil {
		t.Fatal(err)
	}
	followerSvc, err := service.New(service.Config{
		Index:        index.New(),
		Options:      smallOptions(),
		StartUnready: true,
		WriteProxy:   lu,
		DeltaLog:     index.NewDeltaLog(0),
		Tracer:       obs.NewTracer(obs.TracerConfig{SampleEvery: 1}),
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFollower(FollowerConfig{Leader: lu, Service: followerSvc, PollInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.CatchUp(context.Background()); err != nil {
		t.Fatal(err)
	}
	followerTS := httptest.NewServer(followerSvc.Handler())
	t.Cleanup(followerTS.Close)

	fu, err := url.Parse(followerTS.URL)
	if err != nil {
		t.Fatal(err)
	}
	gwTracer := obs.NewTracer(obs.TracerConfig{SampleEvery: 1})
	gw, err := NewGateway(GatewayConfig{Members: []*url.URL{fu}, Tracer: gwTracer})
	if err != nil {
		t.Fatal(err)
	}
	gwTS := httptest.NewServer(gw.Handler())
	t.Cleanup(gwTS.Close)
	return &tracedCluster{
		leaderSvc: leaderSvc, followerSvc: followerSvc, follower: f,
		gw: gw, gwTracer: gwTracer, gwTS: gwTS, followerTS: followerTS,
	}
}

// spanNames returns the names of a tracer's spans for one trace.
func spanNames(t *testing.T, tr *obs.Tracer, traceID string) map[string]int {
	t.Helper()
	spans, _, _ := tr.Snapshot(obs.TraceFilter{TraceID: traceID})
	out := make(map[string]int)
	for _, s := range spans {
		out[s.Name]++
	}
	return out
}

// TestTraceparentRoundTripThroughCluster follows one write through
// gateway → follower → leader (via the write proxy) and asserts every
// hop recorded a span under the gateway-minted trace ID.
func TestTraceparentRoundTripThroughCluster(t *testing.T) {
	c := newTracedCluster(t)

	put := map[string]any{"train": train(t, "guid", 100, 41)}
	body, _ := json.Marshal(put)
	req, err := http.NewRequest(http.MethodPut, c.gwTS.URL+"/streams/traced", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT through gateway = %d", resp.StatusCode)
	}
	traceID := resp.Header.Get(obs.TraceIDHeader)
	if len(traceID) != 32 {
		t.Fatalf("X-Trace-Id = %q, want 32 hex chars", traceID)
	}

	if names := spanNames(t, c.gwTracer, traceID); names["gateway.proxy"] != 1 {
		t.Fatalf("gateway spans for trace %s = %v, want one gateway.proxy", traceID, names)
	}
	followerNames := spanNames(t, c.followerSvc.Tracer(), traceID)
	if followerNames["PUT /streams/{name}"] != 1 || followerNames["leader.write_proxy"] != 1 {
		t.Fatalf("follower spans = %v, want route span and leader.write_proxy", followerNames)
	}
	leaderNames := spanNames(t, c.leaderSvc.Tracer(), traceID)
	if leaderNames["PUT /streams/{name}"] != 1 {
		t.Fatalf("leader spans = %v, want proxied route span", leaderNames)
	}
}

// TestCheckTraceHasMonitorSpan sends one stream check through the
// gateway and asserts the trace carries at least three spans: the
// gateway proxy, the member's route span, and the monitor check —
// readable back through the member's /debug/traces endpoint.
func TestCheckTraceHasMonitorSpan(t *testing.T) {
	c := newTracedCluster(t)

	if code := postJSON(t, http.MethodPut, c.gwTS.URL+"/streams/checked",
		map[string]any{"train": train(t, "ipv4", 100, 7)}, nil); code != http.StatusOK {
		t.Fatalf("stream registration = %d", code)
	}
	// The write landed on the leader; replicate it back so the member
	// can serve the check itself.
	if err := c.follower.CatchUp(context.Background()); err != nil {
		t.Fatal(err)
	}
	batch := map[string]any{"values": train(t, "ipv4", 20, 8)}
	body, _ := json.Marshal(batch)
	req, err := http.NewRequest(http.MethodPost, c.gwTS.URL+"/streams/checked/check", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("check through gateway = %d", resp.StatusCode)
	}
	traceID := resp.Header.Get(obs.TraceIDHeader)

	if names := spanNames(t, c.gwTracer, traceID); names["gateway.proxy"] != 1 {
		t.Fatalf("gateway spans = %v", names)
	}
	// Read the member's spans through the HTTP debug endpoint, the same
	// way the e2e harness does.
	dresp, err := http.Get(c.followerTS.URL + "/debug/traces?trace=" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Body.Close()
	var dump struct {
		Spans []obs.SpanRecord `json:"spans"`
	}
	if err := json.NewDecoder(dresp.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	got := make(map[string]int)
	for _, s := range dump.Spans {
		got[s.Name]++
	}
	if got["POST /streams/{name}/check"] != 1 || got["monitor.check"] != 1 {
		t.Fatalf("member /debug/traces spans = %v, want route span and monitor.check", got)
	}
	for _, s := range dump.Spans {
		if s.Name == "monitor.check" && s.Stream != "checked" {
			t.Fatalf("monitor.check stream = %q, want checked", s.Stream)
		}
	}
}

// TestGatewayContinuesClientTraceparent sends a sampled traceparent to
// the gateway and asserts the client-chosen trace ID survives through
// to the member's spans.
func TestGatewayContinuesClientTraceparent(t *testing.T) {
	c := newTracedCluster(t)
	const clientTrace = "1f2e3d4c5b6a79880102030405060708"
	req, err := http.NewRequest(http.MethodGet, c.gwTS.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.TraceparentHeader, "00-"+clientTrace+"-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(obs.TraceIDHeader); got != clientTrace {
		t.Fatalf("X-Trace-Id = %q, want the client trace %q", got, clientTrace)
	}
	if names := spanNames(t, c.followerSvc.Tracer(), clientTrace); names["GET /healthz"] != 1 {
		t.Fatalf("member spans for client trace = %v", names)
	}
}

// TestGatewayMetricsExposition drives traffic (including a failover)
// through the gateway and lints /gateway/metrics with the exposition
// parser.
func TestGatewayMetricsExposition(t *testing.T) {
	a, _ := stubBackend(t, "a", nil)
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	deadURL := dead.URL
	dead.Close() // refuses connections from now on
	gw := gatewayOver(t, a.URL, deadURL)
	gwTS := httptest.NewServer(gw.Handler())
	defer gwTS.Close()

	for i := 0; i < 4; i++ {
		code, _ := fetchVia(t, gwTS, http.MethodPost, fmt.Sprintf("/streams/s%d/check", i))
		if code != http.StatusOK {
			t.Fatalf("proxy %d = %d", i, code)
		}
	}

	resp, err := http.Get(gwTS.URL + "/gateway/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/gateway/metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ExpositionContentType {
		t.Fatalf("content type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	if errs := promtest.Lint(body); len(errs) != 0 {
		t.Fatalf("gateway exposition lint: %v", errs)
	}
	for _, want := range []string{
		"autovalidate_build_info",
		"autovalidate_gateway_members 2",
		`autovalidate_gateway_member_healthy{member="` + a.URL + `"} 1`,
		`autovalidate_gateway_proxied_requests_total{member="` + a.URL + `"}`,
		`autovalidate_gateway_failovers_total{member="` + deadURL + `"}`,
		"autovalidate_gateway_proxy_duration_seconds_bucket",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
}
