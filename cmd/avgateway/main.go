// Command avgateway fronts a replicated Auto-Validate cluster: given a
// static member list (the leader and its read replicas, each an avserve
// process), it routes stream endpoints (/streams/{name}...) by
// consistent hash so one replica accumulates each stream's monitor
// history, round-robins stateless traffic (/infer, /validate, ...)
// across healthy members, health-checks every member's /readyz, and
// fails a request over to the next replica when a member refuses the
// connection or dies mid-response.
//
// Usage:
//
//	avgateway -members http://n1:8077,http://n2:8077,http://n3:8077 -addr :8070
//
// Own endpoints (never proxied):
//
//	GET /gateway/members   member list with health flags
//	GET /gateway/healthz   gateway liveness
//
// The gateway holds no validation state — restart it freely; stream
// affinity is a pure function of (stream name, member list), so every
// gateway instance over the same members routes identically.
package main

import (
	"context"
	"flag"
	"fmt"
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

func main() {
	members := flag.String("members", "", "comma-separated member base URLs (required), e.g. http://n1:8077,http://n2:8077")
	addr := flag.String("addr", ":8070", "listen address (port 0 picks a free port)")
	check := flag.Duration("check", time.Second, "member /readyz health-check interval")
	maxBody := flag.Int64("max-body", 64<<20, "request-body cap in bytes (bodies are buffered for retry)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof and /debug/traces on this loopback address (empty = off)")
	traceSample := flag.Int("trace-sample", 1, "record 1 in N root traces (0 disables tracing)")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println("avgateway", autovalidate.GetBuildInfo())
		return
	}

	logger := autovalidate.NewLogger(os.Stderr, "avgateway")
	sample := *traceSample
	if sample <= 0 {
		sample = -1
	}
	tracer := autovalidate.NewTracer(autovalidate.TracerConfig{SampleEvery: sample})

	if *members == "" {
		fatal(fmt.Errorf("-members is required"))
	}
	var urls []*url.URL
	for _, s := range strings.Split(*members, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		u, err := url.Parse(s)
		if err != nil || u.Scheme == "" || u.Host == "" {
			fatal(fmt.Errorf("bad member URL %q (want e.g. http://host:8077): %w", s, err))
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
		fatal(err)
	}

	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fatal(err)
		}
		// Distinct phrasing: the e2e harness treats the first
		// "listening on" stdout line as the serving address.
		fmt.Printf("avgateway: debug server on %s\n", dln.Addr())
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
	fmt.Printf("avgateway: routing %d member(s), listening on %s\n", len(urls), ln.Addr())
	for _, u := range urls {
		logger.Info("member configured", "member", u.String())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go g.Run(ctx)

	// ReadHeaderTimeout bounds how long a client may take to send its
	// request head, so a stalled one cannot pin a connection forever.
	server := &http.Server{Handler: g.Handler(), ReadHeaderTimeout: 10 * time.Second}
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
	fmt.Fprintln(os.Stderr, "avgateway:", err)
	os.Exit(1)
}
