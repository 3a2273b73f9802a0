package autovalidate

import (
	"io"
	"log/slog"
	"net/http"

	"autovalidate/internal/buildinfo"
	"autovalidate/internal/journal"
	"autovalidate/internal/obs"
)

// Observability surface: structured JSON logging, lightweight
// distributed tracing with W3C traceparent propagation, and the debug
// endpoints that expose both. A Tracer handed to ServiceConfig and
// GatewayConfig records one span per hop (gateway proxy → member
// handler → monitor check / write proxy / replication apply) into a
// bounded in-process ring served at GET /debug/traces; the logger
// carries trace_id/span_id on every request-scoped line so logs and
// traces correlate.
type (
	// Tracer samples requests and retains finished spans in a bounded
	// ring. The zero config samples every root and keeps 512 spans.
	Tracer = obs.Tracer
	// TracerConfig sets the 1-in-N root sampling rate (negative =
	// never sample).
	TracerConfig = obs.TracerConfig
	// TraceSpan is one recorded span, as served by /debug/traces.
	TraceSpan = obs.SpanRecord
	// BuildInfo identifies the running binary (version, VCS revision,
	// Go toolchain).
	BuildInfo = buildinfo.Info
	// Journal is the drift-forensics audit log: an append-only,
	// segmented, CRC-framed event journal recording monitor decisions
	// (with per-value failure attribution), re-inferences, ingests,
	// replication installs, and registry mutations. Hand one to
	// ServiceConfig.Journal to enable GET /events and startup
	// rehydration of the monitor's escalation state.
	Journal = journal.Journal
	// JournalOptions configures segment rotation and retention.
	JournalOptions = journal.Options
	// JournalEvent is one audit record, as served by GET /events.
	JournalEvent = journal.Event
	// JournalFilter selects events out of a journal (cursor, stream,
	// kind, trace, time).
	JournalFilter = journal.Filter
)

// OpenJournal opens (or creates) an audit journal directory, truncating
// any torn tail left by a crash mid-append.
func OpenJournal(dir string, opt JournalOptions) (*Journal, error) { return journal.Open(dir, opt) }

// NewTracer returns a tracer; a nil *Tracer is valid everywhere and
// disables tracing with zero allocation on the request path.
func NewTracer(cfg TracerConfig) *Tracer { return obs.NewTracer(cfg) }

// NewLogger returns a JSON slog.Logger writing to w, stamping every
// line with the component name. Pass it to ServiceConfig.Logger,
// GatewayConfig.Logger, or ClusterFollowerConfig.Logger.
func NewLogger(w io.Writer, component string) *slog.Logger { return obs.NewLogger(w, component) }

// NewDebugMux returns the opt-in debug handler: net/http/pprof under
// /debug/pprof/ and the tracer's span ring at /debug/traces. Serve it
// on a loopback-only listener — it is not meant for public exposure.
func NewDebugMux(t *Tracer) *http.ServeMux { return obs.DebugMux(t) }

// GetBuildInfo reports the running binary's build identity, read from
// the embedded module and VCS metadata.
func GetBuildInfo() BuildInfo { return buildinfo.Get() }
