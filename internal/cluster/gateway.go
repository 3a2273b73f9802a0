package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"autovalidate/internal/buildinfo"
	"autovalidate/internal/obs"
	"autovalidate/internal/service"
)

// GatewayConfig configures a cluster gateway.
type GatewayConfig struct {
	// Members are the replica base URLs (leader and followers alike —
	// followers proxy writes to the leader themselves, so the gateway
	// stays topology-agnostic). Required, at least one.
	Members []*url.URL
	// Client issues proxied requests (nil = 30s timeout).
	Client *http.Client
	// CheckInterval is the /readyz health-check period (0 = 1s).
	CheckInterval time.Duration
	// MaxBody caps buffered request bodies; buffering is what makes
	// retry-on-next-replica possible (0 = 64 MiB).
	MaxBody int64
	// Logger receives structured proxy and health-transition logs; nil
	// discards.
	Logger *slog.Logger
	// Tracer originates a trace per proxied request (W3C traceparent on
	// the outgoing hop) and records gateway spans for /debug/traces;
	// nil disables span recording but requests still get trace IDs.
	Tracer *obs.Tracer
}

// member is one routable replica with its health state and per-member
// routing counters (exposed on /gateway/metrics).
type member struct {
	url     *url.URL
	healthy atomic.Bool
	// proxied counts requests this member answered; failovers counts
	// forward attempts that failed here and moved on to the next
	// candidate; transitions counts health flips in either direction.
	proxied     atomic.Uint64
	failovers   atomic.Uint64
	transitions atomic.Uint64
}

// setHealthy updates the health flag, reporting (and counting) a state
// transition.
func (m *member) setHealthy(ok bool) (changed bool) {
	if m.healthy.Swap(ok) != ok {
		m.transitions.Add(1)
		return true
	}
	return false
}

// virtualNodes is the consistent-hash ring's point count per member:
// more smooth the stream distribution, fewer shrink the ring.
const virtualNodes = 64

// ringPoint is one virtual node on the consistent-hash ring.
type ringPoint struct {
	hash   uint64
	member int
}

// Gateway routes validation traffic across a static member list: stream
// endpoints (/streams/{name}...) are consistent-hashed by stream name so
// one replica accumulates that stream's monitor history (ring walk gives
// the failover order), everything else round-robins across healthy
// members, and a member that dies mid-request is retried on the next
// candidate. The gateway holds no validation state of its own — it can
// be restarted freely.
type Gateway struct {
	members  []*member
	ring     []ringPoint
	rr       atomic.Uint64
	client   *http.Client
	interval time.Duration
	maxBody  int64

	log    *slog.Logger
	tracer *obs.Tracer
	start  time.Time

	// unroutable counts requests that exhausted every candidate.
	unroutable atomic.Uint64
	// proxyLatency times the whole proxy operation (candidate walk
	// included), the gateway half of the hop-by-hop latency story.
	proxyLatency *obs.Histogram
}

// NewGateway builds a gateway over the member list. Members start
// healthy; the first health-check round corrects that within
// CheckInterval.
func NewGateway(cfg GatewayConfig) (*Gateway, error) {
	if len(cfg.Members) == 0 {
		return nil, fmt.Errorf("cluster: gateway requires at least one member")
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	interval := cfg.CheckInterval
	if interval <= 0 {
		interval = time.Second
	}
	maxBody := cfg.MaxBody
	if maxBody <= 0 {
		maxBody = 64 << 20
	}
	log := cfg.Logger
	if log == nil {
		log = obs.NopLogger()
	}
	g := &Gateway{
		client:       client,
		interval:     interval,
		maxBody:      maxBody,
		log:          log,
		tracer:       cfg.Tracer,
		start:        time.Now(),
		proxyLatency: obs.NewHistogram(nil),
	}
	for _, u := range cfg.Members {
		if u == nil {
			return nil, fmt.Errorf("cluster: nil member URL")
		}
		m := &member{url: u}
		m.healthy.Store(true)
		g.members = append(g.members, m)
	}
	g.ring = buildRing(cfg.Members)
	return g, nil
}

// buildRing places virtualNodes points per member on a 64-bit hash ring.
func buildRing(members []*url.URL) []ringPoint {
	ring := make([]ringPoint, 0, len(members)*virtualNodes)
	for mi, u := range members {
		for v := 0; v < virtualNodes; v++ {
			ring = append(ring, ringPoint{hash: hash64(u.String() + "#" + strconv.Itoa(v)), member: mi})
		}
	}
	sort.Slice(ring, func(i, j int) bool { return ring[i].hash < ring[j].hash })
	return ring
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// sequence returns every member index in ring-walk order starting at the
// key's position — the stream's home replica first, then its failover
// order. The order is a pure function of (key, member list), so every
// gateway instance routes a stream identically.
func (g *Gateway) sequence(key string) []int {
	h := hash64(key)
	start := sort.Search(len(g.ring), func(i int) bool { return g.ring[i].hash >= h })
	seen := make([]bool, len(g.members))
	order := make([]int, 0, len(g.members))
	for i := 0; i < len(g.ring) && len(order) < len(g.members); i++ {
		p := g.ring[(start+i)%len(g.ring)]
		if !seen[p.member] {
			seen[p.member] = true
			order = append(order, p.member)
		}
	}
	return order
}

// rrSequence returns member indices rotated by an atomic counter — the
// round-robin order for stateless traffic.
func (g *Gateway) rrSequence() []int {
	start := int(g.rr.Add(1)) % len(g.members)
	order := make([]int, len(g.members))
	for i := range order {
		order[i] = (start + i) % len(g.members)
	}
	return order
}

// streamKey extracts the stream name from /streams/{name}[/...] paths;
// ok is false for every other route (including the /streams listing,
// which any replica can answer).
func streamKey(path string) (string, bool) {
	rest, found := strings.CutPrefix(path, "/streams/")
	if !found || rest == "" {
		return "", false
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	if rest == "" {
		return "", false
	}
	return rest, true
}

// Handler returns the gateway's routes: /gateway/members for topology
// introspection, /gateway/metrics for the routing counters,
// /cluster/events for the members' merged journals, /debug/traces for
// recorded gateway spans, everything else proxied to the cluster.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /gateway/members", g.handleMembers)
	mux.HandleFunc("GET /gateway/metrics", g.handleMetrics)
	mux.HandleFunc("GET /gateway/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"status":"ok","members":%d}`, len(g.members))
	})
	mux.HandleFunc("GET /cluster/events", g.handleClusterEvents)
	mux.HandleFunc("GET /debug/traces", g.tracer.ServeTraces)
	mux.HandleFunc("/", g.proxy)
	return mux
}

// Tracer returns the gateway's span recorder (nil when tracing is
// disabled) — av gateway mounts its /debug/traces on -debug-addr.
func (g *Gateway) Tracer() *obs.Tracer { return g.tracer }

// handleMetrics is the gateway's Prometheus exposition: per-member
// routing counters and health, ring shape, and proxy latency — built
// on the same obs.MetricWriter as the service's /metrics so both pass
// the same parser lint.
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var mw obs.MetricWriter

	bi := buildinfo.Get()
	const biName = "autovalidate_build_info"
	mw.Family(biName, "Build identity of the running binary (value is always 1).", "gauge")
	mw.Int(biName, obs.Label("version", bi.Version)+","+obs.Label("revision", bi.ShortRevision())+","+obs.Label("goversion", bi.GoVersion), 1)

	mw.Gauge("autovalidate_gateway_members", "Configured cluster members.", float64(len(g.members)))
	mw.Gauge("autovalidate_gateway_ring_points", "Virtual nodes on the consistent-hash ring.", float64(len(g.ring)))
	mw.Gauge("autovalidate_gateway_uptime_seconds", "Seconds since the gateway started.", time.Since(g.start).Seconds())
	mw.Counter("autovalidate_gateway_unroutable_total", "Requests that exhausted every member candidate.", g.unroutable.Load())

	const healthyName = "autovalidate_gateway_member_healthy"
	mw.Family(healthyName, "Member health as seen by the gateway (1 routable, 0 failed).", "gauge")
	for _, m := range g.members {
		var v uint64
		if m.healthy.Load() {
			v = 1
		}
		mw.Int(healthyName, obs.Label("member", m.url.String()), v)
	}
	const proxiedName = "autovalidate_gateway_proxied_requests_total"
	mw.Family(proxiedName, "Requests answered, by member.", "counter")
	for _, m := range g.members {
		mw.Int(proxiedName, obs.Label("member", m.url.String()), m.proxied.Load())
	}
	const failName = "autovalidate_gateway_failovers_total"
	mw.Family(failName, "Forward attempts that failed on a member and moved to the next candidate.", "counter")
	for _, m := range g.members {
		mw.Int(failName, obs.Label("member", m.url.String()), m.failovers.Load())
	}
	const transName = "autovalidate_gateway_health_transitions_total"
	mw.Family(transName, "Member health-state flips (either direction).", "counter")
	for _, m := range g.members {
		mw.Int(transName, obs.Label("member", m.url.String()), m.transitions.Load())
	}

	const durName = "autovalidate_gateway_proxy_duration_seconds"
	mw.Family(durName, "Whole-proxy latency including failover walks.", "histogram")
	mw.Histogram(durName, "", g.proxyLatency)

	mw.WriteResponse(w)
}

// MemberInfo is one member's routing state.
type MemberInfo struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
}

// Members snapshots the member list and health flags.
func (g *Gateway) Members() []MemberInfo {
	out := make([]MemberInfo, len(g.members))
	for i, m := range g.members {
		out[i] = MemberInfo{URL: m.url.String(), Healthy: m.healthy.Load()}
	}
	return out
}

func (g *Gateway) handleMembers(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"members": g.Members()})
}

// sentBody is the buffered body of one proxied request: the pooled
// buffer every forward attempt re-sends, and the count of readers over
// it that net/http's transport has been handed and has not yet closed.
type sentBody struct {
	buf  []byte
	open atomic.Int32
}

var sentBodyPool = sync.Pool{New: func() any { return new(sentBody) }}

// inlineBody is net/http's default Transport.WriteBufferSize: up to it
// a forward's body travels in the same write as its headers (see
// forward).
const inlineBody = 4 << 10

// release pools the buffer for the next request — but only if the
// transport has closed every reader. When a member answers before it
// has read the body, RoundTrip's write loop can still be in the buffer
// after Do has returned, and even after the response body's EOF (the
// transport waits 50 ms for the write, then abandons the connection);
// a buffer it can still see is left to the garbage collector. No reader
// is created after the last Do returns, so a zero count stays zero.
func (b *sentBody) release() {
	if b.open.Load() == 0 && cap(b.buf) <= service.BodyRetain {
		sentBodyPool.Put(b)
	}
}

// reader returns a fresh request body over the buffer for one send.
func (b *sentBody) reader() *sentBodyReader {
	b.open.Add(1)
	return &sentBodyReader{body: b, rest: b.buf}
}

// sentBodyReader is one send's view of a sentBody. The transport may
// call Close from another goroutine than the one in Read; the mutex
// makes Close wait for that Read, so once Close has returned the buffer
// is never touched through this reader again.
type sentBodyReader struct {
	mu   sync.Mutex
	body *sentBody // nil once closed
	rest []byte
}

func (r *sentBodyReader) Read(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.body == nil {
		return 0, errors.New("cluster: request body read after Close")
	}
	if len(r.rest) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.rest)
	r.rest = r.rest[n:]
	return n, nil
}

func (r *sentBodyReader) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.body != nil {
		r.body.open.Add(-1)
		r.body, r.rest = nil, nil
	}
	return nil
}

// proxy forwards one request to the first candidate that answers,
// failing over past members that refuse the connection or die
// mid-response. Request bodies are buffered (bounded, in a pooled
// buffer) so a retry can resend them; responses are buffered so a
// mid-body death retries cleanly instead of leaving the client a
// truncated reply.
func (g *Gateway) proxy(w http.ResponseWriter, r *http.Request) {
	// The gateway is where a request's trace identity is born (or
	// continued, if the client sent its own traceparent): the identity
	// rides the traceparent header on every forward attempt, so the
	// member's server span — and a follower's write-proxy hop to the
	// leader — all join one trace.
	start := time.Now()
	sp, sc := g.tracer.StartServerSpan(r, "gateway.proxy")
	sp.SetRoute("proxy")
	w.Header().Set(obs.TraceIDHeader, sc.TraceID.String())
	log := g.log.With(
		slog.String("trace_id", sc.TraceID.String()),
		slog.String("span_id", sc.SpanID.String()),
		slog.String("path", r.URL.Path),
	)
	r = r.WithContext(obs.ContextWithSpanContext(r.Context(), &sc))
	status := http.StatusBadGateway
	defer func() {
		g.proxyLatency.Observe(time.Since(start))
		sp.SetStatus(status)
		sp.End()
		log.LogAttrs(r.Context(), slog.LevelInfo, "proxied",
			slog.String("method", r.Method),
			slog.Int("status", status),
			slog.Float64("duration_ms", float64(time.Since(start))/float64(time.Millisecond)))
	}()

	var order []int
	if key, ok := streamKey(r.URL.Path); ok {
		order = g.sequence(key)
		sp.SetStream(key)
	} else {
		order = g.rrSequence()
	}

	// A body the Content-Length already puts over the limit is refused
	// unread; http.MaxBytesReader catches the chunked one.
	if r.ContentLength > g.maxBody {
		status = http.StatusRequestEntityTooLarge
		http.Error(w, fmt.Sprintf("request body exceeds %d bytes", g.maxBody), status)
		return
	}
	var body *sentBody
	if r.Body != nil && r.ContentLength != 0 {
		body = sentBodyPool.Get().(*sentBody)
		defer body.release()
		var err error
		body.buf, err = service.ReadBody(http.MaxBytesReader(w, r.Body, g.maxBody), body.buf, r.ContentLength)
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				status = http.StatusRequestEntityTooLarge
				http.Error(w, fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit), status)
				return
			}
			status = http.StatusBadRequest
			http.Error(w, "reading request body: "+err.Error(), status)
			return
		}
	}

	// Healthy members first, in routing order; unhealthy ones as a last
	// resort (the flag may simply be stale).
	candidates := make([]int, 0, len(order))
	for _, mi := range order {
		if g.members[mi].healthy.Load() {
			candidates = append(candidates, mi)
		}
	}
	for _, mi := range order {
		if !g.members[mi].healthy.Load() {
			candidates = append(candidates, mi)
		}
	}

	var lastErr error
	for _, mi := range candidates {
		m := g.members[mi]
		code, header, respBody, sent, err := g.forward(r, m, body)
		if err != nil {
			if m.setHealthy(false) {
				log.Warn("member marked unhealthy", slog.String("member", m.url.String()), slog.String("error", err.Error()))
			}
			m.failovers.Add(1)
			lastErr = err
			sp.SetError(err)
			// Retrying is only safe when the request provably never
			// reached the member (dial failure) or when re-executing it
			// cannot duplicate durable state. A POST /ingest whose
			// response was lost may already have been applied — resending
			// it to another member would proxy it back to the leader and
			// double-count the batch.
			if sent && !retrySafe(r) {
				status = http.StatusBadGateway
				http.Error(w, fmt.Sprintf(
					"member %s failed after the request was sent (%v); not retrying a non-idempotent write — verify state before resending",
					m.url, err), status)
				return
			}
			continue
		}
		if m.setHealthy(true) {
			log.Info("member recovered", slog.String("member", m.url.String()))
		}
		m.proxied.Add(1)
		sp.SetMember(m.url.String())
		for k, vs := range header {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		// The gateway's trace identity wins over the member's echo: the
		// client correlates against the root of the trace.
		w.Header().Set(obs.TraceIDHeader, sc.TraceID.String())
		w.Header().Set("X-Autovalidate-Member", m.url.String())
		status = code
		w.WriteHeader(code)
		w.Write(respBody)
		return
	}
	g.unroutable.Add(1)
	status = http.StatusBadGateway
	http.Error(w, fmt.Sprintf("no cluster member reachable: %v", lastErr), status)
}

// forward sends the buffered request to one member and buffers the full
// response; any transport failure (connect, send, or mid-body) is
// returned as an error so the caller can try the next member. sent
// reports whether the request may have reached the member: false only
// for dial failures, where no byte left this process.
func (g *Gateway) forward(r *http.Request, m *member, body *sentBody) (int, http.Header, []byte, bool, error) {
	u := *m.url
	u.Path = singleJoin(u.Path, r.URL.Path)
	u.RawQuery = r.URL.RawQuery
	// A body that fits the transport's write buffer beside its headers
	// is sent from a private copy as a plain bytes.Reader: net/http puts
	// such a request on the wire in one write, where any other body type
	// costs a flush between headers and body — measurable on a 1 KB
	// check — and a copy that small is nothing pooling could save.
	var inline io.Reader
	if body != nil && len(body.buf) > 0 && len(body.buf) <= inlineBody {
		inline = bytes.NewReader(bytes.Clone(body.buf))
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, u.String(), inline)
	if err != nil {
		return 0, nil, nil, false, err
	}
	if body != nil && len(body.buf) > inlineBody {
		// What http.NewRequest does for a bytes.Reader, with readers that
		// report their Close: the length keeps the forward un-chunked,
		// GetBody lets the transport re-send on a stale connection.
		req.Body = body.reader()
		req.ContentLength = int64(len(body.buf))
		req.GetBody = func() (io.ReadCloser, error) { return body.reader(), nil }
	}
	req.Header = r.Header.Clone()
	// Propagate this hop's trace identity (replacing any client-sent
	// traceparent — the gateway's span is the member's parent now).
	if sc := obs.SpanContextFrom(r.Context()); sc != nil {
		req.Header.Set(obs.TraceparentHeader, sc.Traceparent())
	}
	resp, err := g.client.Do(req)
	if err != nil {
		var opErr *net.OpError
		dialFailed := errors.As(err, &opErr) && opErr.Op == "dial"
		return 0, nil, nil, !dialFailed, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil, true, fmt.Errorf("reading response from %s: %w", m.url, err)
	}
	return resp.StatusCode, resp.Header, respBody, true, nil
}

// retrySafe reports whether a request that may already have reached a
// member can be re-executed elsewhere without duplicating durable
// state: reads always; stateless inference/validation; and stream
// checks, which are at-least-once monitoring signals (a double-counted
// batch in the rolling window is preferable to a dropped one). Proxied
// mutations of durable state — /ingest, stream registration/deletion —
// are not retried once sent.
func retrySafe(r *http.Request) bool {
	switch r.Method {
	case http.MethodGet, http.MethodHead:
		return true
	case http.MethodPost:
		return r.URL.Path == "/validate" || r.URL.Path == "/infer" ||
			strings.HasSuffix(r.URL.Path, "/check")
	}
	return false
}

func singleJoin(a, b string) string {
	switch {
	case strings.HasSuffix(a, "/") && strings.HasPrefix(b, "/"):
		return a + b[1:]
	case !strings.HasSuffix(a, "/") && !strings.HasPrefix(b, "/"):
		return a + "/" + b
	}
	return a + b
}

// CheckOnce probes every member's /readyz once, updating health flags —
// the unit of Run's loop, exported so tests (and operators via a
// one-shot mode) can drive it deterministically.
func (g *Gateway) CheckOnce(ctx context.Context) {
	checkClient := &http.Client{Timeout: 2 * time.Second}
	for _, m := range g.members {
		u := *m.url
		u.Path = singleJoin(u.Path, "/readyz")
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u.String(), nil)
		if err != nil {
			g.noteHealth(m, false, err.Error())
			continue
		}
		resp, err := checkClient.Do(req)
		if err != nil {
			g.noteHealth(m, false, err.Error())
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		g.noteHealth(m, resp.StatusCode == http.StatusOK, resp.Status)
	}
}

// noteHealth records a probe result, logging only actual transitions so
// a steady cluster stays quiet.
func (g *Gateway) noteHealth(m *member, ok bool, detail string) {
	if !m.setHealthy(ok) {
		return
	}
	if ok {
		g.log.Info("member healthy", slog.String("member", m.url.String()))
	} else {
		g.log.Warn("member unhealthy", slog.String("member", m.url.String()), slog.String("detail", detail))
	}
}

// Run health-checks members every CheckInterval until ctx is done.
func (g *Gateway) Run(ctx context.Context) {
	ticker := time.NewTicker(g.interval)
	defer ticker.Stop()
	for {
		g.CheckOnce(ctx)
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
	}
}
