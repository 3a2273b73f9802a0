// Package service exposes Auto-Validate's online half as a long-running
// HTTP service: the offline index is loaded once at startup, inference
// (/infer) and batch validation (/validate) are request/response, and an
// LRU cache of inferred rules keyed by column fingerprint lets recurring
// pipelines skip FMDV entirely after their first run — the paper's O(1)
// online story (§2.4) behind a serving layer.
//
// The index is not frozen at startup: POST /ingest folds newly arrived
// tables into it incrementally (the delta-build of internal/index). The
// index, the inference defaults whose τ matches it, and the cache of
// rules inferred against it are published together as one immutable
// snapshot; an ingest merges into a clone and publishes a new snapshot
// with an empty cache. A request loads the snapshot once, so it never
// observes a half-merged index, and no cached rule can outlive the
// evidence it was inferred from — any changed pattern evidence can alter
// which pattern FMDV selects.
//
// On top of the stateless endpoints sits continuous validation (§6's
// recurring-pipeline deployment): named streams registered under
// /streams/{name} get durable rules in a versioned registry
// (internal/registry), each posted batch is judged by the drift monitor
// (internal/monitor) with accept/alarm/quarantine/re-infer decisions,
// and an ingest that advances the index generation marks affected
// stream rules stale so they re-infer on their next drifting batch.
// GET /metrics exposes the serving counters in Prometheus text format.
package service

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/httputil"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"autovalidate/internal/core"
	"autovalidate/internal/corpus"
	"autovalidate/internal/domain"
	"autovalidate/internal/index"
	"autovalidate/internal/journal"
	"autovalidate/internal/monitor"
	"autovalidate/internal/obs"
	"autovalidate/internal/registry"
	"autovalidate/internal/validate"
)

// Config configures a server.
type Config struct {
	// Index is the loaded offline index. Required. The server takes
	// ownership of the pointer but never mutates the index itself:
	// ingestion clones before merging.
	Index *index.Index
	// Options are the inference defaults; nil means the paper's
	// defaults with τ taken from the index. Per-request parameters
	// override them.
	Options *core.Options
	// CacheSize is the rule-cache capacity in entries (0 = 1024).
	CacheSize int
	// MaxIngestBody caps /ingest request bodies in bytes (0 = 64 MiB).
	MaxIngestBody int64
	// ReadOnly disables the mutating endpoints: /ingest, stream
	// registration/deletion, and the automatic re-inference of
	// /streams/{name}/check.
	ReadOnly bool
	// Registry is the stream registry served under /streams; nil starts
	// an empty in-memory one.
	Registry *registry.Registry
	// RegistryPath, when set, persists the registry there after every
	// mutation (stream put/delete, re-inference, ingest invalidation).
	RegistryPath string
	// Monitor configures the continuous-validation engine; nil uses
	// monitor.DefaultPolicy.
	Monitor *monitor.Policy
	// DeltaLog, when set, retains the delta of every ingest so a cluster
	// leader can serve them as a replication log (GET
	// /replication/deltas). Followers also record replicated deltas here
	// when set, which lets them act as a snapshot-and-delta source in
	// turn.
	DeltaLog *index.DeltaLog
	// WriteProxy, when set, makes this server a cluster follower for
	// writes: the mutating endpoints (/ingest, stream registration and
	// deletion) are proxied to the leader at this base URL instead of
	// served locally, and /streams/{name}/check never re-infers locally
	// (the rule will arrive via registry replication). Read endpoints
	// are always served from the local replica.
	WriteProxy *url.URL
	// StartUnready makes GET /readyz report 503 until the first snapshot
	// is installed (InstallSnapshot). Followers start unready so a
	// cluster gateway does not route to them before they have an index.
	StartUnready bool
	// Logger receives structured request and error logs; nil discards.
	// Request handlers get a child carrying trace_id/span_id/route via
	// the context (obs.Logger).
	Logger *slog.Logger
	// Tracer records request spans for GET /debug/traces and stamps
	// trace IDs into logs and error responses; nil disables span
	// recording (requests still get trace IDs for correlation).
	Tracer *obs.Tracer
	// Journal, when set, is the drift-forensics audit log: monitor
	// decisions (with failure attribution), ingests, replication
	// installs, and registry mutations are appended to it and served
	// back through GET /events. At construction the monitor's rolling
	// state is rehydrated from each stream's latest journaled decision,
	// so restarts do not reset escalation ladders.
	Journal *journal.Journal
}

// Server is a long-running validation service over one offline index.
// All methods are safe for concurrent use.
type Server struct {
	// snap is the served snapshot: index, inference defaults and rule
	// cache, replaced wholesale by publish. Request handlers load it
	// once and use that value for the whole request.
	snap      atomic.Pointer[served]
	cacheSize int
	// cacheStats counts rule-cache behaviour across every snapshot's
	// cache, so the /metrics counters stay monotone over publishes.
	cacheStats cacheStats
	maxIngest  int64
	readOnly   bool

	// ingestMu serializes publishes so concurrent ingests cannot clone
	// the same base and lose each other's columns.
	ingestMu sync.Mutex

	// registry and mon are the continuous-validation subsystem: named
	// streams with durable rules, and their rolling drift state.
	// regMu serializes registry mutations with their persistence so two
	// writers cannot interleave a stale save over a fresh one.
	registry *registry.Registry
	regPath  string
	mon      *monitor.Engine
	regMu    sync.Mutex

	ingests atomic.Uint64
	start   time.Time

	// compiledDFAValues/compiledNFAValues count every validated value,
	// split by whether its rule's pattern lowered to a DFA or runs on
	// the pike-VM fallback — the /metrics view of the traffic by engine.
	compiledDFAValues atomic.Uint64
	compiledNFAValues atomic.Uint64

	// Replication state: the retained delta chain (leaders), the write
	// proxy to the leader (followers), readiness for the gateway's
	// health checks, and counters for /metrics.
	deltaLog         *index.DeltaLog
	writeProxy       *url.URL
	proxy            http.Handler
	ready            atomic.Bool
	replicatedDeltas atomic.Uint64
	snapshotInstalls atomic.Uint64

	// Replication-lag telemetry: the highest leader generation observed
	// by catch-up (ObserveLeaderGeneration), the wall time of the last
	// replication apply, and apply-duration histograms by kind.
	leaderGen      atomic.Uint64
	lastApplyNanos atomic.Int64
	applyDelta     *obs.Histogram
	applySnapshot  *obs.Histogram

	// log and tracer are the observability hooks; both have cheap nil /
	// discard defaults so instrumentation sites stay unconditional.
	log    *slog.Logger
	tracer *obs.Tracer

	// journal is the audit log behind GET /events; nil when forensics
	// are disabled (every append site checks).
	journal *journal.Journal

	// endpoints maps route patterns to request counters and latency
	// histograms; the map is fixed at construction, so lock-free reads
	// are safe.
	endpoints map[string]*endpointStats

	// domMu guards domStats, the per-semantic-domain serving counters
	// (detections at registration, value pass/fail at check time).
	// Entries are created lazily as domains are first seen.
	domMu    sync.Mutex
	domStats map[string]*domainStats
}

// served is one published state of the server: an index, the
// inference defaults whose τ matches its enumeration, and the cache of
// rules inferred against it. It is never mutated after publish (the
// cache locks itself), so the three cannot disagree.
type served struct {
	idx   *index.Index
	opt   core.Options
	cache *ruleLRU
}

// publish makes idx the served index, with opt as its inference
// defaults and a fresh, empty rule cache. Callers other than New hold
// ingestMu.
func (s *Server) publish(idx *index.Index, opt core.Options) {
	s.snap.Store(&served{idx: idx, opt: opt, cache: newRuleLRU(s.cacheSize, &s.cacheStats)})
}

// domainStats aggregates one semantic domain's serving counters.
type domainStats struct {
	// detections counts training columns this domain was proposed for.
	detections uint64
	// batches counts checked stream batches; pass/fail count their
	// values by semantic verdict.
	batches uint64
	pass    uint64
	fail    uint64
}

func (s *Server) domainStat(name string) *domainStats {
	// Caller holds domMu.
	st := s.domStats[name]
	if st == nil {
		st = &domainStats{}
		s.domStats[name] = st
	}
	return st
}

// domainDetected counts one domain proposal outcome.
func (s *Server) domainDetected(name string) {
	s.domMu.Lock()
	defer s.domMu.Unlock()
	s.domainStat(name).detections++
}

// domainChecked counts one checked batch's semantic verdicts.
func (s *Server) domainChecked(name string, pass, fail int) {
	s.domMu.Lock()
	defer s.domMu.Unlock()
	st := s.domainStat(name)
	st.batches++
	st.pass += uint64(pass)
	st.fail += uint64(fail)
}

// New builds a server from a loaded index.
func New(cfg Config) (*Server, error) {
	if cfg.Index == nil {
		return nil, errors.New("service: nil index")
	}
	opt := core.DefaultOptions()
	if cfg.Options != nil {
		opt = *cfg.Options
	} else if cfg.Index.Enum.MaxTokens > 0 {
		opt.Tau = cfg.Index.Enum.MaxTokens
	}
	size := cfg.CacheSize
	if size <= 0 {
		size = 1024
	}
	maxIngest := cfg.MaxIngestBody
	if maxIngest <= 0 {
		maxIngest = maxBody
	}
	reg := cfg.Registry
	if reg == nil {
		reg = registry.New()
	}
	pol := monitor.DefaultPolicy()
	if cfg.Monitor != nil {
		pol = *cfg.Monitor
	}
	log := cfg.Logger
	if log == nil {
		log = obs.NopLogger()
	}
	s := &Server{
		maxIngest:     maxIngest,
		readOnly:      cfg.ReadOnly,
		cacheSize:     size,
		registry:      reg,
		regPath:       cfg.RegistryPath,
		mon:           monitor.NewEngine(pol),
		start:         time.Now(),
		deltaLog:      cfg.DeltaLog,
		writeProxy:    cfg.WriteProxy,
		endpoints:     make(map[string]*endpointStats),
		domStats:      make(map[string]*domainStats),
		applyDelta:    obs.NewHistogram(nil),
		applySnapshot: obs.NewHistogram(nil),
		log:           log,
		tracer:        cfg.Tracer,
		journal:       cfg.Journal,
	}
	s.publish(cfg.Index, opt)
	if cfg.WriteProxy != nil {
		rp := httputil.NewSingleHostReverseProxy(cfg.WriteProxy)
		rp.ErrorHandler = func(w http.ResponseWriter, r *http.Request, err error) {
			writeError(w, r, http.StatusBadGateway, "proxying write to leader: "+err.Error())
		}
		s.proxy = rp
	}
	for _, route := range routes {
		s.endpoints[route] = &endpointStats{latency: obs.NewHistogram(nil)}
	}
	s.ready.Store(!cfg.StartUnready)
	if s.journal != nil {
		// Before the first request: the monitor picks up each stream's
		// escalation ladder where the previous process left it.
		s.rehydrateFromJournal()
	}
	return s, nil
}

// routes lists every route pattern the handler can serve; /metrics
// reports a request counter per entry.
var routes = []string{
	"POST /infer",
	"POST /validate",
	"POST /ingest",
	"GET /healthz",
	"GET /readyz",
	"GET /stats",
	"GET /metrics",
	"GET /streams",
	"PUT /streams/{name}",
	"GET /streams/{name}",
	"DELETE /streams/{name}",
	"POST /streams/{name}/check",
	"GET /streams/{name}/history",
	"GET /streams/{name}/explain",
	"GET /events",
	"GET /debug/traces",
}

// maxBody caps request bodies; a validation batch of a million short
// values fits comfortably.
const maxBody = 64 << 20

// Handler returns the HTTP routes. Every route is wrapped in the
// observability envelope (obs.Handler): trace identity derived from or
// continued via the incoming traceparent, a request-scoped logger in
// the context, X-Trace-Id on the response, and a server span recorded
// when the trace is sampled.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(route string, h http.HandlerFunc) {
		stats := s.endpoints[route]
		inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			stats.requests.Add(1)
			start := time.Now()
			h(w, r)
			stats.latency.Observe(time.Since(start))
		})
		mux.Handle(route, obs.Handler(s.tracer, s.log, route, inner))
	}
	handle("POST /infer", s.handleInfer)
	handle("POST /validate", s.handleValidate)
	switch {
	case s.proxy != nil:
		// Follower: writes go to the leader; the result replicates back
		// via snapshot + delta shipping.
		handle("POST /ingest", s.handleProxyWrite)
		handle("PUT /streams/{name}", s.handleProxyWrite)
		handle("DELETE /streams/{name}", s.handleProxyWrite)
	case !s.readOnly:
		handle("POST /ingest", s.handleIngest)
		handle("PUT /streams/{name}", s.handleStreamPut)
		handle("DELETE /streams/{name}", s.handleStreamDelete)
	}
	handle("GET /streams", s.handleStreamList)
	handle("GET /streams/{name}", s.handleStreamGet)
	handle("POST /streams/{name}/check", s.handleStreamCheck)
	handle("GET /streams/{name}/history", s.handleStreamHistory)
	handle("GET /streams/{name}/explain", s.handleStreamExplain)
	handle("GET /events", s.handleEvents)
	handle("GET /healthz", s.handleHealthz)
	handle("GET /readyz", s.handleReadyz)
	handle("GET /stats", s.handleStats)
	handle("GET /metrics", s.handleMetrics)
	handle("GET /debug/traces", s.tracer.ServeTraces)
	return mux
}

// handleProxyWrite forwards a mutating request to the leader,
// propagating this hop's trace identity so the leader's span parents
// correctly (gateway → follower → leader is one trace).
func (s *Server) handleProxyWrite(w http.ResponseWriter, r *http.Request) {
	ctx, sp := s.tracer.StartSpan(r.Context(), "leader.write_proxy")
	defer sp.End()
	sp.SetMember(s.writeProxy.String())
	if sc := obs.SpanContextFrom(ctx); sc != nil {
		r.Header.Set(obs.TraceparentHeader, sc.Traceparent())
	}
	s.proxy.ServeHTTP(w, r.WithContext(ctx))
}

// Tracer returns the server's span recorder (nil when tracing is
// disabled) — the cmd binaries mount its /debug/traces on -debug-addr.
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// Index returns the currently served index snapshot.
func (s *Server) Index() *index.Index { return s.snap.Load().idx }

// RuleParams are the per-request inference overrides shared by /infer
// and /validate. Pointer fields distinguish "absent" from zero.
type RuleParams struct {
	// Strategy is an FMDV variant name ("FMDV", "FMDV-V", "FMDV-H",
	// "FMDV-VH"); empty keeps the server default.
	Strategy string   `json:"strategy,omitempty"`
	R        *float64 `json:"r,omitempty"`
	M        *int     `json:"m,omitempty"`
	Theta    *float64 `json:"theta,omitempty"`
}

// InferRequest asks for a validation rule over a training column.
type InferRequest struct {
	// Values is the training column (today's feed).
	Values []string `json:"values"`
	RuleParams
}

// InferResponse carries the learned rule and its cache identity.
type InferResponse struct {
	// Fingerprint identifies (values, effective parameters); pass it
	// to /validate to reuse the rule without resending the column.
	Fingerprint string `json:"fingerprint"`
	// Cached reports whether the rule was served from the LRU.
	Cached bool           `json:"cached"`
	Rule   *validate.Rule `json:"rule"`
	// Domain is the semantic domain proposed for the training column,
	// if any; registering the column as a stream persists it.
	Domain *DomainInfo `json:"domain,omitempty"`
}

// ValidateRequest checks a batch against a rule, identified by (in
// precedence order) an inline rule, a fingerprint from a prior /infer,
// or a training column to infer from (using the cache both ways).
type ValidateRequest struct {
	// Values is the batch to validate (tomorrow's feed).
	Values []string `json:"values"`
	// Rule is an inline pre-learned rule.
	Rule *validate.Rule `json:"rule,omitempty"`
	// Fingerprint references a cached rule.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Train is a training column to infer a rule from when no rule or
	// fingerprint is given (or the fingerprint has been evicted).
	Train []string `json:"train,omitempty"`
	RuleParams
}

// ValidateResponse carries the drift report.
type ValidateResponse struct {
	Fingerprint string          `json:"fingerprint,omitempty"`
	Cached      bool            `json:"cached"`
	Report      validate.Report `json:"report"`
}

type errorResponse struct {
	Error string `json:"error"`
	// TraceID correlates the failure with server-side structured logs
	// and /debug/traces; empty outside the request middleware.
	TraceID string `json:"trace_id,omitempty"`
}

// options resolves per-request overrides against the snapshot's
// defaults. An override outside its domain is refused: θ ≥ 1 in
// particular would let the horizontal cut discard all but one shape
// group and return a rule that "tolerates" nearly every training value
// as non-conforming.
func (sv *served) options(p RuleParams) (core.Options, error) {
	opt := sv.opt
	if p.Strategy != "" {
		strat, err := core.ParseStrategy(p.Strategy)
		if err != nil {
			return opt, err
		}
		opt.Strategy = strat
	}
	if p.R != nil {
		if *p.R <= 0 || *p.R > 1 {
			return opt, fmt.Errorf("r must be in (0, 1], got %v", *p.R)
		}
		opt.R = *p.R
	}
	if p.M != nil {
		if *p.M < 0 {
			return opt, fmt.Errorf("m must not be negative, got %d", *p.M)
		}
		opt.M = *p.M
	}
	if p.Theta != nil {
		if *p.Theta < 0 || *p.Theta >= 1 {
			return opt, fmt.Errorf("theta must be in [0, 1), got %v", *p.Theta)
		}
		opt.Theta = *p.Theta
	}
	return opt, nil
}

// Fingerprint hashes a training column together with the inference
// parameters that shape the resulting rule. Repeated pipeline runs over
// identical inputs hash identically, which is what makes the rule cache
// sound: same fingerprint ⇒ same rule.
func Fingerprint(values []string, opt core.Options) string {
	h := sha256.New()
	var scalar [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(scalar[:], v)
		h.Write(scalar[:])
	}
	put(uint64(opt.Strategy))
	put(uint64(opt.M))
	put(uint64(opt.Tau))
	put(math.Float64bits(opt.R))
	put(math.Float64bits(opt.Theta))
	put(uint64(len(values)))
	for _, v := range values {
		put(uint64(len(v)))
		h.Write([]byte(v))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// inferCached returns the rule for a training column, from the
// snapshot's cache when possible. A freshly inferred rule goes into the
// same snapshot's cache: if a publish has superseded it meanwhile, the
// rule lands in a cache no later request can reach.
func (sv *served) inferCached(values []string, opt core.Options) (fp string, rule *validate.Rule, cached bool, err error) {
	fp = Fingerprint(values, opt)
	if rule, ok := sv.cache.get(fp); ok {
		return fp, rule, true, nil
	}
	rule, err = core.Infer(values, sv.idx, opt)
	if err != nil {
		return fp, nil, false, err
	}
	sv.cache.add(fp, rule)
	return fp, rule, false, nil
}

// IngestRequest delivers a batch of newly arrived tables to fold into the
// served index.
type IngestRequest struct {
	Tables []IngestTable `json:"tables"`
}

// IngestTable is one table of an ingest batch.
type IngestTable struct {
	Name    string         `json:"name"`
	Columns []IngestColumn `json:"columns"`
}

// IngestColumn is one column of an ingested table.
type IngestColumn struct {
	Name   string   `json:"name"`
	Values []string `json:"values"`
}

// IngestResponse summarizes the index after an ingest.
type IngestResponse struct {
	// ColumnsIngested is the number of columns in this batch.
	ColumnsIngested int `json:"columns_ingested"`
	// IndexColumns and IndexPatterns are the post-ingest corpus totals.
	IndexColumns  int `json:"index_columns"`
	IndexPatterns int `json:"index_patterns"`
	// Generation is the index's post-ingest generation counter.
	Generation uint64 `json:"generation"`
	// StreamsInvalidated counts registered streams whose rules were
	// marked stale by this ingest: their FPR evidence predates the new
	// index generation, so the monitor will escalate them to
	// re-inference on their next drifting batch.
	StreamsInvalidated int `json:"streams_invalidated"`
	// RegistryPersistWarning is set when the post-invalidation registry
	// save failed; the in-memory registry is still correct.
	RegistryPersistWarning string `json:"registry_persist_warning,omitempty"`
}

// ingestColumns validates an ingest request and flattens it into corpus
// columns.
func ingestColumns(req IngestRequest) ([]*corpus.Column, error) {
	if len(req.Tables) == 0 {
		return nil, errors.New("at least one table is required")
	}
	var cols []*corpus.Column
	for ti, tbl := range req.Tables {
		if len(tbl.Columns) == 0 {
			return nil, fmt.Errorf("table %d (%q) has no columns", ti, tbl.Name)
		}
		for _, col := range tbl.Columns {
			if len(col.Values) == 0 {
				return nil, fmt.Errorf("column %q of table %q has no values", col.Name, tbl.Name)
			}
			cols = append(cols, corpus.NewColumn(tbl.Name, col.Name, col.Values))
		}
	}
	return cols, nil
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	var req IngestRequest
	if !decodeJSONLimit(w, r, &req, s.maxIngest) {
		return
	}
	cols, err := ingestColumns(req)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err.Error())
		return
	}

	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	next, invalidated, err := s.commit(index.BuildDelta(s.snap.Load().idx, cols, index.BuildOptions{}))
	if err != nil {
		writeError(w, r, http.StatusInternalServerError, err.Error())
		return
	}
	s.ingests.Add(1)
	warning := ""
	if invalidated > 0 {
		if err := s.persistRegistry(); err != nil {
			warning = err.Error()
		}
	}
	s.journalEvent(r.Context(), journal.Event{
		Kind: journal.KindIngest,
		Detail: mustDetail(map[string]any{
			"columns":             len(cols),
			"generation":          next.Generation,
			"streams_invalidated": invalidated,
		}),
	})

	writeJSON(w, http.StatusOK, IngestResponse{
		ColumnsIngested:        len(cols),
		IndexColumns:           next.Columns,
		IndexPatterns:          next.Size(),
		Generation:             next.Generation,
		StreamsInvalidated:     invalidated,
		RegistryPersistWarning: warning,
	})
}

// commit folds a delta into a clone of the served index and publishes
// the result with the same inference defaults and an empty rule cache —
// the one write path of /ingest and ReplicateDelta. Stream rules whose
// evidence predates the new generation are marked stale; the count is
// returned. It fails without side effects if the delta does not extend
// the served generation. Callers hold ingestMu.
func (s *Server) commit(d *index.Delta) (*index.Index, int, error) {
	cur := s.snap.Load()
	next := cur.idx.Clone()
	if err := next.ApplyDelta(d); err != nil {
		return nil, 0, err
	}
	if s.deltaLog != nil {
		// Append BEFORE publishing: a replication reader that observes
		// the new generation must find the delta chain already covering
		// it, or it would conclude the follower needs a full snapshot.
		// Under ingestMu, so appends arrive in application order and the
		// retained chain stays contiguous; Append self-heals a gap by
		// resetting to the new delta anyway.
		_ = s.deltaLog.Append(d)
	}
	s.publish(next, cur.opt)
	// Under the same ingestMu, so a concurrent PUT cannot slip an
	// outdated-but-fresh-looking rule past the invalidation.
	return next, s.registry.MarkStale(next.Generation), nil
}

func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request) {
	var req InferRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if len(req.Values) == 0 {
		writeError(w, r, http.StatusBadRequest, "values are required")
		return
	}
	sv := s.snap.Load()
	opt, err := sv.options(req.RuleParams)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	fp, rule, cached, err := sv.inferCached(req.Values, opt)
	if err != nil {
		writeError(w, r, inferStatus(err), err.Error())
		return
	}
	// Domain detection is deterministic on the values and cheap (a
	// bounded sample against each registered validator), so it is
	// recomputed rather than cached with the rule.
	var dom *DomainInfo
	if d, ok := domain.Propose(req.Values); ok {
		dom = domainInfo(d)
	}
	writeJSON(w, http.StatusOK, InferResponse{Fingerprint: fp, Cached: cached, Rule: rule, Domain: dom})
}

func (s *Server) handleValidate(w http.ResponseWriter, r *http.Request) {
	if kind := columnarKindOf(r.Header.Get("Content-Type")); kind != colNone {
		s.handleValidateColumnar(w, r, kind)
		return
	}
	var req ValidateRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if len(req.Values) == 0 {
		writeError(w, r, http.StatusBadRequest, "values are required")
		return
	}

	sv := s.snap.Load()
	resp := ValidateResponse{}
	rule := req.Rule
	if rule == nil && req.Fingerprint != "" {
		if cached, ok := sv.cache.get(req.Fingerprint); ok {
			rule, resp.Fingerprint, resp.Cached = cached, req.Fingerprint, true
		} else if len(req.Train) == 0 {
			writeError(w, r, http.StatusNotFound,
				"unknown fingerprint (evicted or never inferred); resend with train values")
			return
		}
	}
	if rule == nil {
		if len(req.Train) == 0 {
			writeError(w, r, http.StatusBadRequest, "one of rule, fingerprint, or train is required")
			return
		}
		opt, err := sv.options(req.RuleParams)
		if err != nil {
			writeError(w, r, http.StatusBadRequest, err.Error())
			return
		}
		fp, inferred, cached, err := sv.inferCached(req.Train, opt)
		if err != nil {
			writeError(w, r, inferStatus(err), err.Error())
			return
		}
		rule, resp.Fingerprint, resp.Cached = inferred, fp, cached
	}

	report, err := rule.Validate(req.Values)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	s.countCompiled(rule, len(req.Values))
	resp.Report = report
	writeJSON(w, http.StatusOK, resp)
}

// handleValidateColumnar serves POST /validate for text/csv and NDJSON
// bodies: the body is the column itself, so the rule must be named by a
// ?fingerprint= from a prior /infer, and validation runs through the
// compiled batch path without materializing the values as strings.
func (s *Server) handleValidateColumnar(w http.ResponseWriter, r *http.Request, kind columnarKind) {
	fp := r.URL.Query().Get("fingerprint")
	if fp == "" {
		writeError(w, r, http.StatusBadRequest,
			"columnar bodies carry only values; pass ?fingerprint= from a prior /infer to name the rule")
		return
	}
	rule, ok := s.snap.Load().cache.get(fp)
	if !ok {
		writeError(w, r, http.StatusNotFound,
			"unknown fingerprint (evicted or never inferred); re-run /infer with the training column")
		return
	}
	col, ok := decodeColumnar(w, r, kind, maxBody, r.URL.Query().Get("header") == "true")
	if !ok {
		return
	}
	defer col.release()
	values := col.values
	rep := validate.AcquireBatchReport()
	defer rep.Release()
	if err := rule.ValidateBatch(values, rep); err != nil {
		writeError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	s.countCompiled(rule, len(values))
	writeJSON(w, http.StatusOK, ValidateResponse{
		Fingerprint: fp,
		Cached:      true,
		Report:      rep.Report(values),
	})
}

// countCompiled attributes a validated batch's values — from a JSON
// envelope or a column body alike — to the engine its rule's compiled
// program runs on, for the /metrics DFA-vs-pike-VM counters.
func (s *Server) countCompiled(rule *validate.Rule, n int) {
	if rule.Program().Mode() == "dfa" {
		s.compiledDFAValues.Add(uint64(n))
	} else {
		s.compiledNFAValues.Add(uint64(n))
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	idx := s.snap.Load().idx
	writeJSON(w, http.StatusOK, map[string]any{
		"status":     "ok",
		"patterns":   idx.Size(),
		"columns":    idx.Columns,
		"tau":        idx.Enum.MaxTokens,
		"generation": idx.Generation,
	})
}

// handleReadyz is the cluster-facing readiness probe, distinct from
// /healthz (which reports liveness and index shape unconditionally): it
// returns 503 until the server can meaningfully answer validation
// traffic — immediately for a leader with a loaded index, and only after
// the first snapshot install for a follower. Gateways health-check this
// endpoint to decide routability.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "starting",
			"reason": "no snapshot installed yet",
		})
		return
	}
	idx := s.snap.Load().idx
	writeJSON(w, http.StatusOK, map[string]any{
		"status":     "ready",
		"generation": idx.Generation,
		"patterns":   idx.Size(),
	})
}

// Ready reports whether /readyz answers 200.
func (s *Server) Ready() bool { return s.ready.Load() }

// Generation returns the served index's current generation.
func (s *Server) Generation() uint64 { return s.snap.Load().idx.Generation }

// DeltaLog returns the server's retained delta chain (nil unless
// configured) — the replication log a cluster leader serves from.
func (s *Server) DeltaLog() *index.DeltaLog { return s.deltaLog }

// ReplicateDelta applies one replicated delta through the same commit
// as /ingest: readers keep the snapshot they loaded, the new index is
// published with an empty rule cache, and stream rules whose evidence
// predates the new generation are marked stale. It fails without side
// effects if the delta does not extend the current generation.
func (s *Server) ReplicateDelta(d *index.Delta) error {
	_, sp := s.tracer.StartSpan(context.Background(), "replication.apply_delta")
	defer sp.End()
	start := time.Now()
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	next, _, err := s.commit(d)
	if err != nil {
		sp.SetError(err)
		return err
	}
	s.replicatedDeltas.Add(1)
	s.applyDelta.Observe(time.Since(start))
	s.lastApplyNanos.Store(time.Now().UnixNano())
	s.journalEvent(context.Background(), journal.Event{
		Kind:   journal.KindDeltaApply,
		Detail: mustDetail(map[string]any{"generation": next.Generation}),
	})
	s.log.Info("replicated delta applied",
		slog.Uint64("generation", next.Generation),
		slog.Duration("took", time.Since(start)))
	return nil
}

// InstallSnapshot replaces the served index and registry wholesale — the
// follower-side bootstrap (and fallback when the leader's retention
// window has moved past this follower). The index is published with its
// own τ and an empty rule cache; monitor history survives for streams
// whose rule version is unchanged (a re-bootstrap after a leader restart
// must not wipe months of drift state — this replica holds the only
// copy for the streams the gateway pins here); and the server becomes
// ready.
func (s *Server) InstallSnapshot(idx *index.Index, reg *registry.Registry) {
	_, sp := s.tracer.StartSpan(context.Background(), "replication.install_snapshot")
	defer sp.End()
	start := time.Now()
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	// τ must always match the index's enumeration settings — a mismatch
	// makes hypothesis lookups miss — so re-derive it from the
	// replicated index no matter how the defaults were configured, and
	// publish it with the index. The other tuning knobs (r, m, θ) keep
	// their configured values; they are deployment policy, not index
	// properties.
	opt := s.snap.Load().opt
	if idx.Enum.MaxTokens > 0 {
		opt.Tau = idx.Enum.MaxTokens
	}
	s.publish(idx, opt)
	if reg != nil {
		s.installRegistry(reg)
	} else {
		// No registry came with the snapshot: nothing to diff against,
		// so conservatively drop all rolling state.
		s.mon.ResetAll()
	}
	s.snapshotInstalls.Add(1)
	s.ready.Store(true)
	s.applySnapshot.Observe(time.Since(start))
	s.lastApplyNanos.Store(time.Now().UnixNano())
	// The snapshot embodies the leader's state at serve time, so it is
	// also a lower bound on the leader's generation.
	s.ObserveLeaderGeneration(idx.Generation)
	s.journalEvent(context.Background(), journal.Event{
		Kind:   journal.KindSnapshotInstall,
		Detail: mustDetail(map[string]any{"generation": idx.Generation, "patterns": idx.Size()}),
	})
	s.log.Info("snapshot installed",
		slog.Uint64("generation", idx.Generation),
		slog.Int("patterns", idx.Size()),
		slog.Duration("took", time.Since(start)))
}

// ObserveLeaderGeneration records the highest leader index generation
// this server has seen — a follower's catch-up loop reports it from
// every replication response — feeding the generations-behind and
// seconds-since-applied replication-lag gauges in /metrics.
func (s *Server) ObserveLeaderGeneration(gen uint64) {
	for {
		cur := s.leaderGen.Load()
		if gen <= cur || s.leaderGen.CompareAndSwap(cur, gen) {
			return
		}
	}
}

// InstallRegistry replaces the stream registry with a freshly replicated
// copy, resetting monitor history only for streams whose latest rule
// version changed (or that disappeared): the gateway pins each stream to
// one replica, so surviving history is this replica's to keep.
func (s *Server) InstallRegistry(reg *registry.Registry) { s.installRegistry(reg) }

func (s *Server) installRegistry(reg *registry.Registry) {
	old := make(map[string]int)
	for _, name := range s.registry.Names() {
		if st, ok := s.registry.Get(name); ok {
			old[name] = st.Version
		}
	}
	s.registry.ReplaceFrom(reg)
	for name, ver := range old {
		if st, ok := s.registry.Get(name); !ok || st.Version != ver {
			s.mon.Reset(name)
		}
	}
}

// Stats is the /stats payload.
type Stats struct {
	IndexPatterns   int     `json:"index_patterns"`
	IndexColumns    int     `json:"index_columns"`
	IndexGeneration uint64  `json:"index_generation"`
	Ingests         uint64  `json:"ingests"`
	CacheSize       int     `json:"cache_size"`
	CacheCapacity   int     `json:"cache_capacity"`
	CacheHits       uint64  `json:"cache_hits"`
	CacheMisses     uint64  `json:"cache_misses"`
	CacheEvictions  uint64  `json:"cache_evictions"`
	Streams         int     `json:"streams"`
	UptimeSeconds   float64 `json:"uptime_seconds"`
}

// CurrentStats snapshots the serving counters.
func (s *Server) CurrentStats() Stats {
	sv := s.snap.Load()
	return Stats{
		IndexPatterns:   sv.idx.Size(),
		IndexColumns:    sv.idx.Columns,
		IndexGeneration: sv.idx.Generation,
		Ingests:         s.ingests.Load(),
		CacheSize:       sv.cache.len(),
		CacheCapacity:   sv.cache.cap,
		CacheHits:       s.cacheStats.hits.Load(),
		CacheMisses:     s.cacheStats.misses.Load(),
		CacheEvictions:  s.cacheStats.evictions.Load(),
		Streams:         s.registry.Len(),
		UptimeSeconds:   time.Since(s.start).Seconds(),
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.CurrentStats())
}

// inferStatus maps inference failures to HTTP statuses: infeasible or
// empty columns are well-formed requests the algorithm declines (422),
// anything else is a server fault.
func inferStatus(err error) int {
	if errors.Is(err, core.ErrNoFeasible) || errors.Is(err, core.ErrEmptyColumn) {
		return http.StatusUnprocessableEntity
	}
	return http.StatusInternalServerError
}

func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	return decodeJSONLimit(w, r, dst, maxBody)
}

func decodeJSONLimit(w http.ResponseWriter, r *http.Request, dst any, limit int64) bool {
	if r.ContentLength > limit {
		writeTooLarge(w, r, limit)
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	if err := dec.Decode(dst); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeTooLarge(w, r, tooBig.Limit)
			return false
		}
		writeError(w, r, http.StatusBadRequest, "bad request body: "+err.Error())
		return false
	}
	return true
}

// writeTooLarge answers 413 for a body over limit: before a byte is
// read when the Content-Length already says so, from the
// http.MaxBytesReader's error when a chunked body turns out to be.
func writeTooLarge(w http.ResponseWriter, r *http.Request, limit int64) {
	writeError(w, r, http.StatusRequestEntityTooLarge,
		fmt.Sprintf("request body exceeds %d bytes", limit))
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeError answers a failure as JSON, stamped with the request's
// trace ID, and logs it through the request-scoped logger (which
// carries the same trace identity) — one grep connects the client's
// error to the server's view of it.
func writeError(w http.ResponseWriter, r *http.Request, status int, msg string) {
	ctx := r.Context()
	obs.Logger(ctx).Warn("request failed",
		slog.Int("status", status),
		slog.String("error", msg))
	writeJSON(w, status, errorResponse{Error: msg, TraceID: obs.TraceIDFrom(ctx)})
}
