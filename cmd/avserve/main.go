// Command avserve runs the long-running Auto-Validate service: it loads
// a persisted offline index once and serves rule inference and batch
// validation over HTTP, caching inferred rules so recurring pipelines
// skip FMDV after their first run.
//
// Usage:
//
//	avserve -index lake.idx -addr :8077 [-registry rules.avr]
//	avserve -index lake.idx -leader [-retain 64]            # replication leader
//	avserve -follow http://leader:8077 [-poll 2s]           # read replica
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
// With -leader, three replication endpoints are added and every ingest's
// delta is retained (bounded by -retain) as a replication log:
//
//	GET /replication/snapshot      framed index + stream registry artifact
//	GET /replication/deltas?from=G retained delta chain from generation G (410 → re-snapshot)
//	GET /replication/registry      framed registry alone (stream-rule changes)
//
// With -follow, avserve runs as a read replica: it starts unready,
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
// avindex -append for durable growth. The stream registry, by
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
// feed with avtail.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"syscall"
	"time"

	"autovalidate"
	"autovalidate/internal/core"
)

func main() {
	idxPath := flag.String("index", "lake.idx", "offline index file (built by avindex)")
	addr := flag.String("addr", ":8077", "listen address (port 0 picks a free port)")
	cacheSize := flag.Int("cache", 1024, "rule-cache capacity (entries)")
	r := flag.Float64("r", 0.1, "default FPR target r")
	m := flag.Int("m", 100, "default coverage target m")
	theta := flag.Float64("theta", 0.1, "default non-conforming tolerance θ")
	alpha := flag.Float64("alpha", 0.01, "default drift-test significance level")
	strategy := flag.String("strategy", "FMDV-VH", "default FMDV variant (FMDV, FMDV-V, FMDV-H, FMDV-VH)")
	readonly := flag.Bool("readonly", false, "disable the mutating endpoints (/ingest, stream registration)")
	regPath := flag.String("registry", "", "stream-rule registry file (loaded at startup, persisted on mutation; empty = in-memory only)")
	journalDir := flag.String("journal", "", "audit-journal directory for drift forensics (/events, restart rehydration; empty = off)")
	journalSegBytes := flag.Int64("journal-segment-bytes", 0, "journal segment rotation threshold (0 = 4 MiB)")
	journalSegments := flag.Int("journal-segments", 0, "journal segments retained, oldest deleted past this (0 = 8)")
	leader := flag.Bool("leader", false, "serve the /replication endpoints and retain ingest deltas for followers")
	retain := flag.Int("retain", 64, "delta-chain retention for -leader (followers further behind re-snapshot)")
	follow := flag.String("follow", "", "leader base URL; run as a read replica (bootstraps from its snapshot, polls deltas, proxies writes)")
	poll := flag.Duration("poll", 2*time.Second, "delta-poll interval for -follow (bounds follower staleness)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof and /debug/traces on this loopback address (empty = off)")
	traceSample := flag.Int("trace-sample", 1, "record 1 in N root traces (0 disables tracing; propagated sampled traces are always recorded)")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println("avserve", autovalidate.GetBuildInfo())
		return
	}

	logger := autovalidate.NewLogger(os.Stderr, "avserve")
	sample := *traceSample
	if sample <= 0 {
		sample = -1
	}
	tracer := autovalidate.NewTracer(autovalidate.TracerConfig{SampleEvery: sample})

	switch {
	case *leader && *follow != "":
		fatal(errors.New("-leader and -follow are mutually exclusive"))
	case *follow != "" && *regPath != "":
		fatal(errors.New("-registry cannot be combined with -follow: a follower's registry is replicated from the leader"))
	case *follow != "" && *readonly:
		fatal(errors.New("-readonly is implied by -follow (writes are proxied to the leader)"))
	}

	opt := autovalidate.DefaultOptions()
	opt.R, opt.M, opt.Theta, opt.Alpha = *r, *m, *theta, *alpha
	strat, err := core.ParseStrategy(*strategy)
	if err != nil {
		fatal(err)
	}
	opt.Strategy = strat

	cfg := autovalidate.ServiceConfig{
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
			fatal(err)
		}
		defer jrn.Close()
		cfg.Journal = jrn
		logger.Info("journal open", "dir", *journalDir, "last_event_id", jrn.LastID())
	}

	var follower *autovalidate.ClusterFollower
	var leaderURL *url.URL
	if *follow != "" {
		// Follower: no local index; serve an empty placeholder behind a
		// 503 /readyz until the first snapshot installs. The tuning
		// flags (-r, -m, -theta, ...) apply exactly as on the leader —
		// run every node with the same ones — while τ is re-derived
		// from the replicated index at each snapshot install.
		var err error
		leaderURL, err = url.Parse(*follow)
		if err != nil || leaderURL.Scheme == "" || leaderURL.Host == "" {
			fatal(fmt.Errorf("bad -follow URL %q (want e.g. http://leader:8077): %w", *follow, err))
		}
		cfg.Index = autovalidate.NewEmptyIndex()
		cfg.Options = &opt
		cfg.StartUnready = true
		cfg.WriteProxy = leaderURL
		// No DeltaLog: avserve followers never serve /replication, so a
		// retained chain here would be write-only memory.
		logger.Info("following leader", "leader", leaderURL.String(), "poll", poll.String())
	} else {
		start := time.Now()
		idx, err := autovalidate.LoadIndex(*idxPath)
		if err != nil {
			fatal(err)
		}
		logger.Info("index loaded", "index", idx.String(), "took", time.Since(start).Round(time.Millisecond).String())
		opt.Tau = idx.Enum.MaxTokens
		cfg.Index = idx
		cfg.Options = &opt

		if *regPath != "" {
			reg, err := autovalidate.LoadStreamRegistry(*regPath)
			switch {
			case err == nil:
				logger.Info("registry loaded", "streams", reg.Len(), "path", *regPath)
			case errors.Is(err, fs.ErrNotExist):
				reg = autovalidate.NewStreamRegistry()
				logger.Info("starting fresh registry", "path", *regPath)
			default:
				fatal(err)
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
		fatal(err)
	}

	handler := svc.Handler()
	if *leader {
		l, err := autovalidate.NewClusterLeader(svc)
		if err != nil {
			fatal(err)
		}
		handler = l.Handler()
		logger.Info("replication leader", "retain", *retain)
	}
	if *follow != "" {
		follower, err = autovalidate.NewClusterFollower(autovalidate.ClusterFollowerConfig{
			Leader:       leaderURL,
			Service:      svc,
			PollInterval: *poll,
			Logger:       logger,
		})
		if err != nil {
			fatal(err)
		}
	}

	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fatal(err)
		}
		// Distinct phrasing: the e2e harness treats the first
		// "listening on" stdout line as the serving address.
		fmt.Printf("avserve: debug server on %s\n", dln.Addr())
		go func() {
			if err := http.Serve(dln, autovalidate.NewDebugMux(tracer)); err != nil {
				logger.Error("debug server failed", "error", err.Error())
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	// The serving-address handshake stays on stdout — tests and scripts
	// parse this exact line to learn the bound port.
	fmt.Printf("avserve: listening on %s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if follower != nil {
		go follower.Run(ctx)
	}

	// ReadHeaderTimeout bounds how long a client may take to send its
	// request head, so a stalled one cannot pin a connection forever.
	server := &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan error, 1)
	go func() { done <- server.Serve(ln) }()
	select {
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := server.Shutdown(shutdownCtx); err != nil {
			fatal(err)
		}
		logger.Info("shut down")
	case err := <-done:
		if err != nil && err != http.ErrServerClosed {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "avserve:", err)
	os.Exit(1)
}
