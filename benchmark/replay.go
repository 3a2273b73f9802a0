package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"path/filepath"
	"runtime"
	"time"

	"autovalidate/internal/cluster"
	"autovalidate/internal/core"
	"autovalidate/internal/monitor"
	"autovalidate/internal/obs"
	"autovalidate/internal/registry"
	"autovalidate/internal/validate"
)

// Span names of the replay, outermost first. A layer's metric is its
// span name + "_self_ms".
const (
	spanGateway   = "cluster.gateway" // request through the gateway
	spanTransport = "http.transport"  // request to the member over HTTP
	spanHandler   = "service.handler" // Server.Handler().ServeHTTP, no network
	spanMonitor   = "monitor.check"   // Engine.CheckBytes / Check
	spanValidate  = "validate.batch"  // Rule.ValidateBatch / Validate
	spanKernel    = "pattern.kernel"  // Program.CountMisses / Pattern.Match per value
	spanInfer     = "core.infer"      // core.Infer
)

var checkDepths = []string{spanGateway, spanTransport, spanHandler, spanMonitor, spanValidate, spanKernel}
var inferDepths = []string{spanGateway, spanTransport, spanHandler, spanInfer}

// allDepths names every layer that reports a self time.
var allDepths = append(append([]string(nil), checkDepths...), spanInfer)

// The replay sends replayWarm operations that are not reported (cold
// connections and caches), then replayChecks or replayInfers that are.
// Every allocEvery-th operation counts allocations instead of being
// timed: ReadMemStats stops the world and leaves the caches cold, which
// the next timed call would pay for.
const (
	replayWarm   = 2 * numStreams
	replayChecks = 500
	replayInfers = 98 // 14 tables
	allocEvery   = 10
)

// probes are what the replay runs against instead of the cluster, so
// that no stream's monitor state is fed twice: one member behind its own
// gateway, one reached over HTTP, one called handler-direct, and a bare
// monitor engine. All hold the cluster's rules over the same index.
type probes struct {
	viaGateway, viaHTTP, direct *member
	gwSrv                       *http.Server
	gwURL                       *url.URL
	engine                      *monitor.Engine
	// streams are the registered rules, by schedule stream index.
	streams []registry.Stream
}

func startProbes(lk *lake, streams []registry.Stream, dir string) (_ *probes, err error) {
	p := &probes{engine: monitor.NewEngine(monitor.DefaultPolicy()), streams: streams}
	defer func() {
		if err != nil {
			err = errors.Join(err, p.close())
		}
	}()
	for name, dst := range map[string]**member{"probe-gw": &p.viaGateway, "probe-http": &p.viaHTTP, "probe-direct": &p.direct} {
		m, err := newServedMember(lk, filepath.Join(dir, name), roleStandalone, nil, anyPort)
		if err != nil {
			return nil, err
		}
		*dst = m
		for _, st := range streams {
			if _, err := m.svc.Registry().PutDomain(st.Name, st.Rule, st.Options, st.IndexGeneration, st.Domain); err != nil {
				return nil, fmt.Errorf("copying rule of %s to %s: %w", st.Name, name, err)
			}
		}
	}
	gw, err := cluster.NewGateway(cluster.GatewayConfig{
		Members: []*url.URL{p.viaGateway.url},
		Logger:  obs.NewLogger(io.Discard, "avgateway"),
		Tracer:  obs.NewTracer(obs.TracerConfig{SampleEvery: 1}),
	})
	if err != nil {
		return nil, err
	}
	if p.gwSrv, p.gwURL, err = serve(gw.Handler(), anyPort); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *probes) close() error {
	var err error
	if p.gwSrv != nil {
		err = shutdown(p.gwSrv)
	}
	for _, m := range []*member{p.viaGateway, p.viaHTTP, p.direct} {
		if m != nil {
			err = errors.Join(err, m.close())
		}
	}
	return err
}

// recorder is the ResponseWriter of a handler-direct call.
type recorder struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header         { return r.header }
func (r *recorder) WriteHeader(status int)      { r.status = status }
func (r *recorder) Write(b []byte) (int, error) { return r.body.Write(b) }

// serveDirect calls the handler with o as a server would, without the
// network, and returns the status and reply.
func serveDirect(h http.Handler, o *op) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, o.path, bytes.NewReader(o.body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", o.contentType)
	rec := &recorder{header: http.Header{}, status: http.StatusOK}
	h.ServeHTTP(rec, req)
	return rec.status, rec.body.Bytes(), nil
}

// allocStats are heap allocations per span name, one entry per call.
type allocStats struct {
	objects, bytes map[string][]float64
}

// counted runs f between two ReadMemStats and files the difference
// under name. Only the replaying goroutine is running, so the
// difference is f's.
func (a *allocStats) counted(name string, f func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	a.objects[name] = append(a.objects[name], float64(after.Mallocs-before.Mallocs))
	a.bytes[name] = append(a.bytes[name], float64(after.TotalAlloc-before.TotalAlloc))
}

// byteViews lays values out in one slab, as the service's column
// decoders do, and returns a view per value.
func byteViews(values []string) [][]byte {
	n := 0
	for _, v := range values {
		n += len(v)
	}
	slab := make([]byte, 0, n)
	views := make([][]byte, len(values))
	for i, v := range values {
		lo := len(slab)
		slab = append(slab, v...)
		views[i] = slab[lo:len(slab):len(slab)]
	}
	return views
}

// replayResult is the traced replay's outcome besides its spans.
type replayResult struct {
	attempted, failed int
	bodyBytes         float64 // mean request body
	allocs            allocStats
}

// step is one depth of one replayed operation: the call into the layer
// and the check of what it answered (run outside the timing).
type step struct {
	name  string
	call  func()
	check func() error
}

// replay sends the schedule's first operations, one client, at every
// depth from the gateway down to the kernel, and records one span per
// depth with the span one depth up as its parent. Each operation is
// either timed, or has its allocations counted (no spans), or neither
// while warming up. Whatever runs first for an operation finds its
// bytes and the index entries it needs cold; so that no layer always
// pays for that, odd operations run the depths innermost first.
func replay(tr *tracer, lk *lake, sc *schedule, p *probes) (*replayResult, error) {
	res := &replayResult{allocs: allocStats{objects: map[string][]float64{}, bytes: map[string][]float64{}}}
	gw := newLoadClient(p.gwURL.String(), tr.epoch)
	direct := newLoadClient(p.viaHTTP.url.String(), tr.epoch)
	defer gw.close()
	defer direct.close()
	handler := p.direct.svc.Handler()

	n := replayWarm + replayChecks
	if sc.spec.infer {
		n = replayWarm + replayInfers
	}
	var totalBody int
	for j := 0; j < n; j++ {
		var o *op
		if sc.spec.infer {
			var err error
			if o, err = sc.inferOp(j); err != nil {
				return nil, err
			}
		} else {
			o = sc.checkOp(0, numStreams, j)
		}
		totalBody += len(o.body)

		var status int
		var reply []byte
		var err error
		answered := func(reply func() []byte) func() error {
			return func() error {
				var s sample
				if sc.spec.infer {
					verifyInfer(&s, o, status, reply(), err)
				} else {
					verifyCheck(&s, o, status, reply(), err)
				}
				res.attempted++
				if s.failed {
					res.failed++
				}
				return nil
			}
		}
		steps := []step{
			{spanGateway, func() { status, err = gw.post(o) }, answered(gw.reply.Bytes)},
			{spanTransport, func() { status, err = direct.post(o) }, answered(direct.reply.Bytes)},
			{spanHandler, func() { status, reply, err = serveDirect(handler, o) }, answered(func() []byte { return reply })},
		}
		if sc.spec.infer {
			steps = append(steps, step{
				spanInfer,
				func() { _, err = core.Infer(o.values, lk.idx, lk.opt) },
				func() error {
					if err != nil {
						return fmt.Errorf("core.Infer on replayed column %d: %w", j, err)
					}
					return nil
				},
			})
		} else {
			steps = append(steps, stepsBelowHandler(p, o)...)
		}

		counting := j >= replayWarm && j%allocEvery == 0
		timed := j >= replayWarm && !counting
		start := make([]time.Duration, len(steps))
		end := make([]time.Duration, len(steps))
		for k := range steps {
			i := k
			if j%2 == 1 {
				i = len(steps) - 1 - k
			}
			if counting {
				res.allocs.counted(steps[i].name, steps[i].call)
			} else {
				start[i] = time.Since(tr.epoch)
				steps[i].call()
				end[i] = time.Since(tr.epoch)
			}
			if err := steps[i].check(); err != nil {
				return nil, err
			}
		}
		if timed {
			parent := 0
			for i, st := range steps {
				parent = tr.add(st.name, j+1, parent, start[i], end[i])
			}
		}
	}
	res.bodyBytes = float64(totalBody) / float64(n)
	return res, nil
}

// stepsBelowHandler are a check's three depths under the handler: on
// the byte path for column bodies, on the string path for the JSON
// envelope, as the handler itself chooses.
func stepsBelowHandler(p *probes, o *op) []step {
	st := p.streams[o.stream]
	rule := st.Rule
	var err error
	var dec monitor.Decision
	failed := func(call string) func() error {
		return func() error {
			if err != nil {
				return fmt.Errorf("%s of %s: %w", call, st.Name, err)
			}
			return nil
		}
	}
	if o.contentType == encJSON {
		return []step{
			{spanMonitor, func() { dec, err = p.engine.Check(st, o.values) },
				func() error { return wantAction("monitor.Check", st.Name, dec, o.expect, err) }},
			{spanValidate, func() { _, err = rule.Validate(o.values) }, failed("Rule.Validate")},
			{spanKernel, func() {
				for _, v := range o.values {
					rule.Pattern.Match(v)
				}
			}, func() error { return nil }},
		}
	}
	values := byteViews(o.values)
	prog := rule.Program()
	var idx [8]int
	return []step{
		{spanMonitor, func() { dec, err = p.engine.CheckBytes(st, values) },
			func() error { return wantAction("monitor.CheckBytes", st.Name, dec, o.expect, err) }},
		{spanValidate, func() {
			rep := validate.AcquireBatchReport()
			err = rule.ValidateBatch(values, rep)
			rep.Release()
		}, failed("Rule.ValidateBatch")},
		{spanKernel, func() { prog.CountMisses(values, idx[:0], len(idx)) }, func() error { return nil }},
	}
}

func wantAction(call, stream string, dec monitor.Decision, want string, err error) error {
	if err != nil {
		return fmt.Errorf("%s of %s: %w", call, stream, err)
	}
	if got := dec.Verdict.ActionName; got != want {
		return fmt.Errorf("%s of %s answered %q, want %q", call, stream, got, want)
	}
	return nil
}
