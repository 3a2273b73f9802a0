package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log/slog"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"autovalidate"
)

// serveCmd runs the long-running Auto-Validate service: it loads a
// persisted offline index once and serves rule inference and batch
// validation over HTTP, caching inferred rules so recurring pipelines
// skip FMDV after their first run.
//
//	av serve -index lake.idx -addr :8077 [-registry rules.avr]
//	av serve -index lake.idx -leader [-retain 64]            # replication leader
//	av serve -follow http://leader:8077 [-poll 2s]           # read replica
//
// Endpoints:
//
//	POST   /infer                  {"values": [...]}                 → rule + fingerprint
//	POST   /validate               {"fingerprint": "...", "values": [...]} → drift report
//	POST   /ingest                 {"tables": [...]}                 → fold new tables into the index
//	PUT    /streams/{name}         {"train": [...]}                  → register/re-register a stream rule
//	GET    /streams                                                  → list registered streams
//	GET    /streams/{name}[?version=N]                               → stream rule (any version)
//	DELETE /streams/{name}                                           → remove a stream
//	POST   /streams/{name}/check   {"values": [...]}                 → monitor decision (accept/alarm/quarantine/reinfer)
//	GET    /streams/{name}/history                                   → rolling batch verdicts + pass-rate EWMA
//	GET    /streams/{name}/explain                                   → latest alarm's failure attribution (needs -journal)
//	GET    /events                 cursor-paginated audit journal (needs -journal; filters: stream, kind, trace, since, id, after, limit)
//	GET    /healthz                index summary (liveness)
//	GET    /readyz                 200 once servable, 503 while a follower awaits its first snapshot
//	GET    /stats                  cache and traffic counters (JSON)
//	GET    /metrics                Prometheus text format (counters, gauges, latency histograms)
//
// With -leader, two replication endpoints are added and every ingest's
// delta is retained (bounded by -retain) as a replication log:
//
//	GET /replication/snapshot      framed index + stream registry artifact, stamped with the leader's id
//	GET /replication/deltas?from=G&epoch=E&leader=L
//	                               retained delta chain from generation G, then the registry when its
//	                               epoch is not E (410 → re-snapshot: L is another leader's id, or G is
//	                               past the head or behind the window)
//
// With -follow, the service runs as a read replica: it starts unready,
// bootstraps index and registry from the leader's snapshot, then polls
// for deltas every -poll, applying them through the same copy-on-write
// swap as /ingest so in-flight requests never observe a half-applied
// index. Mutating endpoints are proxied to the leader; the follower's
// state converges on the next poll (eventual consistency, bounded by
// the poll interval).
//
// /ingest swaps the index copy-on-write, so concurrent /infer and
// /validate requests never observe a half-merged index, and marks
// registered stream rules stale (their FPR evidence predates the new
// generation) so the monitor escalates them to re-inference on their
// next drifting batch; pass -readonly to disable all mutating
// endpoints. The in-memory index grows but is not persisted — run
// av index -append for durable growth. The stream registry, by
// contrast, is durable when -registry is set: it is loaded at startup
// and re-persisted after every stream mutation.
//
// With -journal DIR, every monitor escalation (and each state
// transition back to accept), ingest, replication install, and stream
// registration/deletion is appended to a segmented, checksummed audit
// journal in DIR and served back through GET /events — each decision
// carrying per-value failure attribution (which pattern token the
// misses died at, with redacted samples). At startup the monitor's
// per-stream escalation state is rehydrated from the journal tail, so
// a restart does not reset consecutive-alarm ladders; follow the live
// feed with av tail.
func serveCmd(c *command, flags *flag.FlagSet) func([]string) {
	cacheSize := flags.Int("cache", 1024, "rule-cache capacity (entries)")
	tune := tuningFlags(flags, true, true)
	readonly := flags.Bool("readonly", false, "disable the mutating endpoints (/ingest, stream registration)")
	regPath := flags.String("registry", "", "stream-rule registry file (loaded at startup, persisted on mutation; empty = in-memory only)")
	journalDir := flags.String("journal", "", "audit-journal directory for drift forensics (/events, restart rehydration; empty = off)")
	journalSegBytes := flags.Int64("journal-segment-bytes", 0, "journal segment rotation threshold (0 = 4 MiB)")
	journalSegments := flags.Int("journal-segments", 0, "journal segments retained, oldest deleted past this (0 = 8)")
	leader := flags.Bool("leader", false, "serve the /replication endpoints and retain ingest deltas for followers")
	retain := flags.Int("retain", 64, "delta-chain retention for -leader (followers further behind re-snapshot)")
	follow := flags.String("follow", "", "leader base URL; run as a read replica (bootstraps from its snapshot, polls deltas, proxies writes)")
	poll := flags.Duration("poll", 2*time.Second, "delta-poll interval for -follow (bounds follower staleness)")
	lis := listenFlags(flags, ":8077")
	return func([]string) {
		logger := autovalidate.NewLogger(os.Stderr, c.prog)
		tracer := lis.tracer()

		switch {
		case *leader && *follow != "":
			c.fatal(errors.New("-leader and -follow are mutually exclusive"))
		case *follow != "" && *regPath != "":
			c.fatal(errors.New("-registry cannot be combined with -follow: a follower's registry is replicated from the leader"))
		case *follow != "" && *readonly:
			c.fatal(errors.New("-readonly is implied by -follow (writes are proxied to the leader)"))
		}

		opt, err := tune.options()
		if err != nil {
			c.fatal(err)
		}
		cfg := autovalidate.ServiceConfig{
			Options:   &opt,
			CacheSize: *cacheSize,
			ReadOnly:  *readonly,
			Logger:    logger,
			Tracer:    tracer,
		}
		if *journalDir != "" {
			jrn, err := autovalidate.OpenJournal(*journalDir, autovalidate.JournalOptions{
				MaxSegmentBytes: *journalSegBytes,
				MaxSegments:     *journalSegments,
			})
			if err != nil {
				c.fatal(err)
			}
			defer jrn.Close()
			cfg.Journal = jrn
			logger.Info("journal open", "dir", *journalDir, "last_event_id", jrn.LastID())
		}

		var leaderURL *url.URL
		if *follow != "" {
			// Follower: no local index; serve an empty placeholder behind a
			// 503 /readyz until the first snapshot installs. The tuning
			// flags (-r, -m, -theta, ...) apply exactly as on the leader —
			// run every node with the same ones — while τ is re-derived
			// from the replicated index at each snapshot install.
			leaderURL, err = url.Parse(*follow)
			if err != nil || leaderURL.Scheme == "" || leaderURL.Host == "" {
				c.fatal(fmt.Errorf("bad -follow URL %q (want e.g. http://leader:8077): %w", *follow, err))
			}
			cfg.Index = autovalidate.NewEmptyIndex()
			cfg.StartUnready = true
			cfg.WriteProxy = leaderURL
			// No DeltaLog: followers never serve /replication, so a
			// retained chain here would be write-only memory.
			logger.Info("following leader", "leader", leaderURL.String(), "poll", poll.String())
		} else {
			start := time.Now()
			idx, err := loadIndex(tune.index, &opt)
			if err != nil {
				c.fatal(err)
			}
			logger.Info("index loaded", "index", idx.String(), "took", time.Since(start).Round(time.Millisecond).String())
			cfg.Index = idx

			if *regPath != "" {
				reg, err := autovalidate.LoadStreamRegistry(*regPath)
				switch {
				case err == nil:
					logger.Info("registry loaded", "streams", reg.Len(), "path", *regPath)
				case errors.Is(err, fs.ErrNotExist):
					reg = autovalidate.NewStreamRegistry()
					logger.Info("starting fresh registry", "path", *regPath)
				default:
					c.fatal(err)
				}
				cfg.Registry = reg
				cfg.RegistryPath = *regPath
			}
			if *leader {
				cfg.DeltaLog = autovalidate.NewIndexDeltaLog(*retain)
			}
		}

		svc, err := autovalidate.NewService(cfg)
		if err != nil {
			c.fatal(err)
		}

		handler := svc.Handler()
		if *leader {
			l, err := autovalidate.NewClusterLeader(svc)
			if err != nil {
				c.fatal(err)
			}
			handler = l.Handler()
			logger.Info("replication leader", "retain", *retain)
		}
		var follower *autovalidate.ClusterFollower
		if *follow != "" {
			follower, err = autovalidate.NewClusterFollower(autovalidate.ClusterFollowerConfig{
				Leader:       leaderURL,
				Service:      svc,
				PollInterval: *poll,
				Logger:       logger,
			})
			if err != nil {
				c.fatal(err)
			}
		}

		lis.serve(c, handler, tracer, logger, c.prog+": listening on ", func(ctx context.Context) {
			if follower != nil {
				go follower.Run(ctx)
			}
		})
	}
}

// gatewayCmd fronts a replicated Auto-Validate cluster: given a static
// member list (the leader and its read replicas, each an av serve
// process), it routes stream endpoints (/streams/{name}...) by
// consistent hash so one replica accumulates each stream's monitor
// history, round-robins stateless traffic (/infer, /validate, ...)
// across healthy members, health-checks every member's /readyz, and
// fails a request over to the next replica when a member refuses the
// connection or dies mid-response.
//
//	av gateway -members http://n1:8077,http://n2:8077,http://n3:8077 -addr :8070
//
// Own endpoints (never proxied):
//
//	GET /gateway/members   member list with health flags
//	GET /gateway/healthz   gateway liveness
//	GET /gateway/metrics   the gateway's own Prometheus metrics
//	GET /cluster/events    every member's journal merged by time, paged
//	                       by one event ID per member (next_after/after)
//	GET /debug/traces      the gateway's recent request spans
//
// The gateway holds no validation state — restart it freely; stream
// affinity is a pure function of (stream name, member list), so every
// gateway instance over the same members routes identically.
func gatewayCmd(c *command, flags *flag.FlagSet) func([]string) {
	members := flags.String("members", "", "comma-separated member base URLs (required), e.g. http://n1:8077,http://n2:8077")
	check := flags.Duration("check", time.Second, "member /readyz health-check interval")
	maxBody := flags.Int64("max-body", 64<<20, "request-body cap in bytes (bodies are buffered for retry)")
	lis := listenFlags(flags, ":8070")
	return func([]string) {
		logger := autovalidate.NewLogger(os.Stderr, c.prog)
		tracer := lis.tracer()

		if *members == "" {
			c.fatal(fmt.Errorf("-members is required"))
		}
		var urls []*url.URL
		for _, s := range strings.Split(*members, ",") {
			s = strings.TrimSpace(s)
			if s == "" {
				continue
			}
			u, err := url.Parse(s)
			if err != nil || u.Scheme == "" || u.Host == "" {
				c.fatal(fmt.Errorf("bad member URL %q (want e.g. http://host:8077): %w", s, err))
			}
			urls = append(urls, u)
		}

		g, err := autovalidate.NewGateway(autovalidate.GatewayConfig{
			Members:       urls,
			CheckInterval: *check,
			MaxBody:       *maxBody,
			Logger:        logger,
			Tracer:        tracer,
		})
		if err != nil {
			c.fatal(err)
		}

		banner := fmt.Sprintf("%s: routing %d member(s), listening on ", c.prog, len(urls))
		lis.serve(c, g.Handler(), tracer, logger, banner, func(ctx context.Context) {
			for _, u := range urls {
				logger.Info("member configured", "member", u.String())
			}
			go g.Run(ctx)
		})
	}
}

// listener holds the flags serve and gateway share: where to listen,
// where to serve the debug mux, and how often to sample traces.
type listener struct {
	addr, debugAddr string
	traceSample     int
}

func listenFlags(flags *flag.FlagSet, addr string) *listener {
	l := &listener{}
	flags.StringVar(&l.addr, "addr", addr, "listen address (port 0 picks a free port)")
	flags.StringVar(&l.debugAddr, "debug-addr", "", "serve net/http/pprof and /debug/traces on this loopback address (empty = off)")
	flags.IntVar(&l.traceSample, "trace-sample", 1, "record 1 in N root traces (0 disables tracing; propagated sampled traces are always recorded)")
	return l
}

func (l *listener) tracer() *autovalidate.Tracer {
	sample := l.traceSample
	if sample <= 0 {
		sample = -1
	}
	return autovalidate.NewTracer(autovalidate.TracerConfig{SampleEvery: sample})
}

// A client has readHeaderTimeout to send its request head and
// readTimeout to send the whole request, body included, and a keep-alive
// connection idle for idleTimeout between requests is closed, so neither
// a stalled client, a trickling one nor an idle one can pin a connection
// forever. readTimeout is far above what a 64 MiB body takes on loopback.
// No WriteTimeout is set: the leader's snapshot response grows with the
// index, and a deadline fit for today's index would cut a follower's
// bootstrap tomorrow. idleTimeout and readTimeout are variables only so
// that a test can shorten them.
const readHeaderTimeout = 10 * time.Second

var (
	readTimeout = 60 * time.Second
	idleTimeout = 120 * time.Second
)

// newServer is the http.Server that serve runs handler on.
func newServer(handler http.Handler) *http.Server {
	return &http.Server{Handler: handler, ReadHeaderTimeout: readHeaderTimeout, ReadTimeout: readTimeout, IdleTimeout: idleTimeout}
}

// serve runs handler until SIGINT or SIGTERM: the optional debug
// server first, then the listener, whose bound address is announced on
// stdout after banner, then start (which launches the background loop
// on the serving context), then an http.Server that drains in-flight
// requests on shutdown.
func (l *listener) serve(c *command, handler http.Handler, tracer *autovalidate.Tracer, logger *slog.Logger,
	banner string, start func(context.Context)) {
	if l.debugAddr != "" {
		dln, err := net.Listen("tcp", l.debugAddr)
		if err != nil {
			c.fatal(err)
		}
		// Distinct phrasing: the e2e harness treats the first
		// "listening on" stdout line as the serving address.
		fmt.Printf("%s: debug server on %s\n", c.prog, dln.Addr())
		go func() {
			if err := http.Serve(dln, autovalidate.NewDebugMux(tracer)); err != nil {
				logger.Error("debug server failed", "error", err.Error())
			}
		}()
	}

	ln, err := net.Listen("tcp", l.addr)
	if err != nil {
		c.fatal(err)
	}
	// The serving-address handshake stays on stdout — tests and scripts
	// parse this exact line to learn the bound port.
	fmt.Printf("%s%s\n", banner, ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	start(ctx)

	server := newServer(handler)
	done := make(chan error, 1)
	go func() { done <- server.Serve(ln) }()
	select {
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := server.Shutdown(shutdownCtx); err != nil {
			c.fatal(err)
		}
		logger.Info("shut down")
	case err := <-done:
		if err != nil && err != http.ErrServerClosed {
			c.fatal(err)
		}
	}
}
