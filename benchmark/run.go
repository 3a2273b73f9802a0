package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"autovalidate/internal/registry"
)

const (
	// setUps full set-ups are made per untraced run and their median is
	// reported, since a single one is the noisiest number here.
	setUps = 3
	warmUp = 2 * time.Second
	// A traced run is for per-layer numbers: one set-up, a shorter window
	// for the counts, then the replay.
	tracedWarmUp    = time.Second
	tracedWindowDiv = 3
	minTracedWindow = 2 * time.Second
)

// runConfig is one run of one workload.
type runConfig struct {
	contract *contract
	spec     spec
	seed     int64
	window   time.Duration
	traced   bool
	// dir holds journals and registries while the run lasts.
	dir string
	// traceOut is where a traced run writes its spans.
	traceOut string
}

// run sets the cluster up (setUps times over when untraced) and
// measures one workload run on the last one.
func run(cfg runConfig) (*result, error) {
	sc, err := buildSchedule(cfg.spec, cfg.seed)
	if err != nil {
		return nil, err
	}
	n := setUps
	if cfg.traced {
		n = 1
	}
	var lk *lake
	var c *testCluster
	var setupS []float64
	for i := 0; i < n; i++ {
		if c != nil {
			if err := c.close(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		lk = buildLake(sc.seed)
		c, err = startCluster(lk, sc, filepath.Join(cfg.dir, fmt.Sprintf("cluster-%d", i)))
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	return measure(cfg, sc, lk, c, median(setupS))
}

// measure drives the schedule against a cluster that has just been set
// up over lk, closes it, and returns the run's result.
func measure(cfg runConfig, sc *schedule, lk *lake, c *testCluster, setupS float64) (*result, error) {
	defer func() { _ = c.close() }() // error paths; the success path checks it

	// The rules as registered: the window's ingests will mark them stale.
	streams := make([]registry.Stream, len(sc.streams))
	for i, st := range sc.streams {
		var ok bool
		if streams[i], ok = c.leader.svc.Registry().Get(st.name); !ok {
			return nil, fmt.Errorf("stream %s is not in the leader's registry", st.name)
		}
	}

	warm, window := warmUp, cfg.window
	if cfg.traced {
		warm, window = tracedWarmUp, max(cfg.window/tracedWindowDiv, minTracedWindow)
	}
	load, err := runLoad(c, sc, min(warm, cfg.window), window)
	if err != nil {
		return nil, err
	}
	converged := c.waitConverged(5*time.Second) == nil
	sum := summarise(sc, load)

	if !cfg.traced {
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		if err := c.close(); err != nil {
			return nil, err
		}
		res, err := newResult(cfg.contract.EndToEnd, map[string]float64{
			"setup_s":        setupS,
			"ops_per_s":      sum.opsPerS,
			"values_per_s":   sum.valuesPerS,
			"latency_p50_ms": percentile(sum.latencyMS, 50),
			"peak_rss_mb":    rss,
		})
		if err != nil {
			return nil, err
		}
		res.Attempted, res.Failed = sum.attempted, sum.failed
		res.Correct = sum.failed == 0 && sum.attempted > 0 && converged
		return res, nil
	}

	values := windowMetrics(c, load, sum)
	if err := c.close(); err != nil {
		return nil, err
	}
	tr := newTracer()
	rep, err := tracedReplay(tr, lk, sc, streams, cfg.dir, values)
	if err != nil {
		return nil, err
	}
	spans := append(tr.spans, clientSpans(load, len(tr.spans))...)
	if err := writeJSONL(cfg.traceOut, spans); err != nil {
		return nil, err
	}
	res, err := newResult(cfg.contract.PerLayer, values)
	if err != nil {
		return nil, err
	}
	res.Attempted = sum.attempted + rep.attempted
	res.Failed = sum.failed + rep.failed
	res.Correct = res.Failed == 0 && converged
	return res, nil
}

// tracedReplay runs the replay and the standalone costs against fresh
// probes and adds their metrics to values.
func tracedReplay(tr *tracer, lk *lake, sc *schedule, streams []registry.Stream, dir string, values map[string]float64) (_ *replayResult, err error) {
	p, err := startProbes(lk, streams, dir)
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, p.close()) }()
	rep, err := replay(tr, lk, sc, p)
	if err != nil {
		return nil, err
	}
	replayMetrics(values, tr.spans, rep, sc)
	// The handler-direct probe has served its replay; its state no longer
	// matters, so the costs that need a service use it.
	costs, err := layerCosts(lk, sc, streams, p.direct, dir)
	if err != nil {
		return nil, err
	}
	for k, v := range costs {
		values[k] = v
	}
	return rep, nil
}

// loadSummary is the client's view of the window.
type loadSummary struct {
	attempted, failed   int
	opsPerS, valuesPerS float64
	latencyMS           []float64 // sorted, one per operation in the window
	ingestMS            []float64 // sorted, from the due time
	ingestLateMS        []float64
	catchUpMS           []float64
	bodyBytesPerOp      float64
	nonAcceptRatio      float64
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// summarise reduces the clients' logs to the window's numbers. An
// operation is a check, or a table's worth of /infer posts; it counts
// when it began and ended inside the window. The rates are plain totals
// over the window, stalls (GC, fsync, index swaps) included, and only
// of what was answered correctly.
func summarise(sc *schedule, load *loadResult) loadSummary {
	var sum loadSummary
	group := 1
	if sc.spec.infer {
		group = len(inferDomains)
	}
	var ops, values, bodyBytes, whole, wholeNonAccept int
	// cycleOps operations make one pass of a client over its streams'
	// cycles; ratios the schedule fixes are taken over whole passes.
	cycleOps := numStreams / checkClients * len(sc.streams[0].cycle)
	for _, samples := range load.samples {
		for _, s := range samples {
			if !s.failed && s.end >= load.t0 && s.end < load.t1 {
				values += s.values
			}
		}
		for i := 0; i+group <= len(samples); i += group {
			op := samples[i : i+group]
			if op[0].start < load.t0 || op[group-1].end > load.t1 {
				continue
			}
			sum.attempted++
			failed := false
			for _, s := range op {
				failed = failed || s.failed
				bodyBytes += s.bodyBytes
			}
			if failed {
				sum.failed++
			} else {
				ops++
			}
			sum.latencyMS = append(sum.latencyMS, ms(op[group-1].end-op[0].start))
		}
		if sc.spec.infer {
			continue
		}
		for i := 0; i+cycleOps <= len(samples); i += cycleOps {
			if samples[i].start < load.t0 || samples[i+cycleOps-1].end > load.t1 {
				continue
			}
			for _, s := range samples[i : i+cycleOps] {
				whole++
				if s.nonAccept {
					wholeNonAccept++
				}
			}
		}
	}
	sum.opsPerS = float64(ops) / load.window.Seconds()
	sum.valuesPerS = float64(values) / load.window.Seconds()
	if sum.attempted > 0 {
		sum.bodyBytesPerOp = float64(bodyBytes) / float64(sum.attempted)
	}
	if whole > 0 {
		sum.nonAcceptRatio = float64(wholeNonAccept) / float64(whole)
	}
	for _, is := range load.ingests {
		if is.due < load.t0 || is.end > load.t1 {
			continue
		}
		sum.attempted++
		if is.failed {
			sum.failed++
			continue
		}
		sum.ingestMS = append(sum.ingestMS, ms(is.end-is.due))
		sum.ingestLateMS = append(sum.ingestLateMS, ms(is.sent-is.due))
		sum.catchUpMS = append(sum.catchUpMS, ms(is.catchUp))
	}
	sort.Float64s(sum.latencyMS)
	sort.Float64s(sum.ingestMS)
	return sum
}

// windowMetrics are the per-layer numbers that come from the loaded
// window: the client's own and the program's counters across it.
func windowMetrics(c *testCluster, load *loadResult, sum loadSummary) map[string]float64 {
	pre, post := load.pre, load.post
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	leader := c.leader.url.String()
	var proxied float64
	for m, v := range post.proxied {
		proxied += v - pre.proxied[m]
	}
	appended := post.appended - pre.appended
	hits, misses := post.cacheHits-pre.cacheHits, post.cacheMisses-pre.cacheMisses
	ops := float64(len(sum.latencyMS))
	tail := tailPercentile(len(sum.latencyMS))
	return map[string]float64{
		"loadgen.latency_p90_ms":      percentile(sum.latencyMS, 90),
		"loadgen.latency_p99_ms":      percentile(sum.latencyMS, 99),
		"loadgen.latency_tail_ms":     percentile(sum.latencyMS, tail),
		"loadgen.latency_tail_pct":    tail,
		"loadgen.latency_samples":     ops,
		"loadgen.ingest_p50_ms":       percentile(sum.ingestMS, 50),
		"loadgen.ingest_late_ms":      median(sum.ingestLateMS),
		"loadgen.body_bytes_per_op":   sum.bodyBytesPerOp,
		"loadgen.error_ratio":         ratio(float64(sum.failed), float64(sum.attempted)),
		"cluster.gateway_failovers":   post.failovers - pre.failovers,
		"cluster.leader_share":        ratio(post.proxied[leader]-pre.proxied[leader], proxied),
		"cluster.follower_catchup_ms": median(sum.catchUpMS),
		"cluster.follower_snapshots":  float64(c.repl.Status().Snapshots),
		"service.cache_hit_ratio":     ratio(hits, hits+misses),
		"monitor.nonaccept_ratio":     sum.nonAcceptRatio,
		"journal.appends_per_op":      ratio(appended, ops),
		"process.gc_pause_total_ms":   float64(post.mem.PauseTotalNs-pre.mem.PauseTotalNs) / 1e6,
		"process.gc_cycles":           float64(post.mem.NumGC - pre.mem.NumGC),
		"process.heap_peak_mb":        float64(post.mem.HeapSys) / (1 << 20),
		"process.allocs_per_op":       ratio(float64(post.mem.Mallocs-pre.mem.Mallocs), ops),
	}
}

// replayMetrics derives the self times and per-call allocations from
// the replay's spans. Times are stratified medians: a stratum is one
// stream's clean or drifted batches, or one domain's /infer columns.
func replayMetrics(values map[string]float64, spans []span, rep *replayResult, sc *schedule) {
	depths := checkDepths
	stratum := func(opID int) int {
		o := sc.checkOp(0, numStreams, opID-1)
		if o.expect != "accept" {
			return o.stream + numStreams
		}
		return o.stream
	}
	if sc.spec.infer {
		depths = inferDepths
		stratum = func(opID int) int { return (opID - 1) % len(inferDomains) }
	}
	// Every layer reports a self time; one the workload never enters
	// spent none.
	for _, name := range allDepths {
		values[name+"_self_ms"] = 0
	}
	self := selfTimes(spans)
	var sum float64
	for _, name := range depths {
		v := stratifiedMedian(self[name], stratum)
		values[name+"_self_ms"] = v
		sum += v
	}
	// The replay's client is its gateway-depth span.
	var client []opTime
	var clientMS []float64
	for _, s := range spans {
		if s.Name == spanGateway {
			d := (s.EndUS - s.StartUS) / 1e3
			client = append(client, opTime{s.OpID, d})
			clientMS = append(clientMS, d)
		}
	}
	values["loadgen.self_sum_ratio"] = sum / stratifiedMedian(client, stratum)
	values["loadgen.traced_client_p50_ms"] = median(clientMS)
	values["service.handler_allocs_per_op"] = median(rep.allocs.objects[spanHandler])
	values["service.handler_bytes_per_op"] = median(rep.allocs.bytes[spanHandler])
	values["monitor.check_allocs_per_op"] = median(rep.allocs.objects[spanMonitor])
	values["validate.batch_allocs_per_op"] = median(rep.allocs.objects[spanValidate])
	values["service.decode_mb_per_s"] = 0
	if h := values[spanHandler+"_self_ms"]; h > 0 {
		values["service.decode_mb_per_s"] = rep.bodyBytes / (1 << 20) / (h / 1e3)
	}
}

// clientSpans renders the window's requests as root spans, so the trace
// file also shows the loaded cluster as its clients saw it.
func clientSpans(load *loadResult, firstID int) []span {
	var out []span
	for c, samples := range load.samples {
		for n, s := range samples {
			if s.start < load.t0 || s.end > load.t1 {
				continue
			}
			out = append(out, span{
				ID: firstID + len(out) + 1, Name: "client", OpID: -(c*1_000_000 + n + 1),
				StartUS: float64(s.start) / 1e3, EndUS: float64(s.end) / 1e3,
			})
		}
	}
	return out
}

// withRunDir runs f with a fresh directory under parent and removes it
// afterwards.
func withRunDir(parent string, f func(dir string) error) error {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return fmt.Errorf("creating %s: %w", parent, err)
	}
	dir, err := os.MkdirTemp(parent, "run-")
	if err != nil {
		return fmt.Errorf("creating run directory: %w", err)
	}
	return errors.Join(f(dir), os.RemoveAll(dir))
}
