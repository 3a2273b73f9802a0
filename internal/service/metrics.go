package service

import (
	"net/http"
	"sort"
	"time"

	"autovalidate/internal/buildinfo"
	"autovalidate/internal/core"
	"autovalidate/internal/monitor"
	"autovalidate/internal/obs"
)

// streamStateOrder lists the monitor actions a stream can sit in; the
// autovalidate_stream_state gauge emits one 0/1 series per (stream,
// state) so a scrape sees escalations as state transitions.
var streamStateOrder = []monitor.Action{
	monitor.Accept, monitor.Alarm, monitor.Quarantine, monitor.Reinfer,
}

// handleMetrics renders the serving counters in the Prometheus text
// exposition format through the shared obs.MetricWriter (the gateway's
// /gateway/metrics uses the same writer, so both expositions pass the
// same parser-based lint).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.CurrentStats()

	var mw obs.MetricWriter

	bi := buildinfo.Get()
	const biName = "autovalidate_build_info"
	mw.Family(biName, "Build identity of the running binary (value is always 1).", "gauge")
	mw.Int(biName, obs.Label("version", bi.Version)+","+obs.Label("revision", bi.ShortRevision())+","+obs.Label("goversion", bi.GoVersion), 1)

	mw.Counter("autovalidate_cache_hits_total", "Rule-cache hits.", st.CacheHits)
	mw.Counter("autovalidate_cache_misses_total", "Rule-cache misses.", st.CacheMisses)
	mw.Counter("autovalidate_cache_evictions_total", "Rule-cache LRU evictions.", st.CacheEvictions)
	mw.Gauge("autovalidate_cache_entries", "Rules currently cached.", float64(st.CacheSize))
	mw.Gauge("autovalidate_cache_capacity", "Rule-cache capacity.", float64(st.CacheCapacity))
	mw.Gauge("autovalidate_index_generation", "Offline index ingest-batch generation.", float64(st.IndexGeneration))
	mw.Gauge("autovalidate_index_patterns", "Patterns in the offline index.", float64(st.IndexPatterns))
	mw.Gauge("autovalidate_index_columns", "Corpus columns aggregated into the index.", float64(st.IndexColumns))
	mw.Counter("autovalidate_ingests_total", "Ingest batches folded into the index.", st.Ingests)

	// Validated values by the engine their rule's program ran on, JSON
	// envelopes and column bodies alike: "dfa" is the single-pass table,
	// "nfa" the step-bounded pike-VM fallback for patterns too large to
	// determinize.
	const engName = "autovalidate_compiled_values_total"
	mw.Family(engName, "Values validated through compiled rule programs, by engine.", "counter")
	mw.Int(engName, `engine="dfa"`, s.compiledDFAValues.Load())
	mw.Int(engName, `engine="nfa"`, s.compiledNFAValues.Load())

	// Inference work, process-wide (every /infer, registration and
	// re-inference): how many vertical-cut segments were solved and how
	// many were an already-solved segment met again, and how much of the
	// enumerated hypothesis space the index had evidence for — a low hit
	// share says the lake has not seen this kind of column.
	infer := core.ReadCounters()
	const segName = "autovalidate_infer_segments_total"
	mw.Family(segName, "Vertical-cut segments scored during inference, by whether the segment memo answered.", "counter")
	mw.Int(segName, `memo="hit"`, infer.SegmentsMemoized)
	mw.Int(segName, `memo="miss"`, infer.SegmentsSolved)
	mw.Counter("autovalidate_infer_candidates_total", "Candidate patterns enumerated for scoring during inference.", infer.Candidates)
	mw.Counter("autovalidate_infer_index_hits_total", "Candidate patterns the offline index had evidence for.", infer.IndexHits)

	mw.Counter("autovalidate_replicated_deltas_total", "Replicated deltas applied (followers).", s.replicatedDeltas.Load())
	mw.Counter("autovalidate_snapshot_installs_total", "Full snapshots installed (followers).", s.snapshotInstalls.Load())

	// Replication lag, both in generations and in wall time. A leader
	// (or a standalone server) reports 0 behind; the seconds-since
	// gauge appears once the first replicated apply lands.
	leaderGen := s.leaderGen.Load()
	mw.Gauge("autovalidate_replication_leader_generation", "Leader index generation last reported by replication (0 when not a follower).", float64(leaderGen))
	behind := 0.0
	if leaderGen > st.IndexGeneration {
		behind = float64(leaderGen - st.IndexGeneration)
	}
	mw.Gauge("autovalidate_replication_generations_behind", "Leader index generations not yet applied locally.", behind)
	if last := s.lastApplyNanos.Load(); last > 0 {
		mw.Gauge("autovalidate_replication_seconds_since_apply", "Seconds since the last replicated delta or snapshot was applied.", time.Since(time.Unix(0, last)).Seconds())
	}
	const applyName = "autovalidate_replication_apply_duration_seconds"
	mw.Family(applyName, "Replication apply duration, by kind.", "histogram")
	mw.Histogram(applyName, obs.Label("kind", "delta"), s.applyDelta)
	mw.Histogram(applyName, obs.Label("kind", "snapshot"), s.applySnapshot)

	ready := 0.0
	if s.Ready() {
		ready = 1
	}
	mw.Gauge("autovalidate_ready", "Whether /readyz reports 200 (1) or 503 (0).", ready)
	mw.Gauge("autovalidate_streams", "Streams registered for continuous validation.", float64(st.Streams))
	mw.Gauge("autovalidate_uptime_seconds", "Seconds since the server started.", st.UptimeSeconds)

	// Per-stream monitor state: the most recent decision as a 0/1 gauge
	// over the four actions, so quarantines and re-inference escalations
	// are visible to a scrape without querying each stream's history.
	// Filtered against the registry: a check racing a DELETE can
	// recreate monitor state for a stream that no longer exists, and an
	// unregistered stream's series must not linger in the exposition.
	states := s.mon.States()
	for name := range states {
		if s.registry.Versions(name) == 0 {
			delete(states, name)
		}
	}
	if len(states) > 0 {
		streams := make([]string, 0, len(states))
		for name := range states {
			streams = append(streams, name)
		}
		sort.Strings(streams)
		const stName = "autovalidate_stream_state"
		mw.Family(stName, "Most recent monitor decision per stream (1 marks the current state).", "gauge")
		for _, name := range streams {
			for _, a := range streamStateOrder {
				var v uint64
				if a == states[name] {
					v = 1
				}
				mw.Int(stName, obs.Label("stream", name)+","+obs.Label("state", a.String()), v)
			}
		}
	}

	// Per-semantic-domain counters: detections at registration time,
	// checked batches, and per-value pass/fail verdicts. Domains appear
	// once first seen; "none" counts detection attempts that proposed
	// no domain.
	s.domMu.Lock()
	domains := make([]string, 0, len(s.domStats))
	for name := range s.domStats {
		domains = append(domains, name)
	}
	sort.Strings(domains)
	type domRow struct {
		name                        string
		detections, batches, hit, f uint64
	}
	rows := make([]domRow, 0, len(domains))
	for _, name := range domains {
		st := s.domStats[name]
		rows = append(rows, domRow{name, st.detections, st.batches, st.pass, st.fail})
	}
	s.domMu.Unlock()
	if len(rows) > 0 {
		const detName = "autovalidate_domain_detections_total"
		mw.Family(detName, "Training columns a semantic domain was proposed for.", "counter")
		for _, r := range rows {
			mw.Int(detName, obs.Label("domain", r.name), r.detections)
		}
		const batName = "autovalidate_domain_batches_total"
		mw.Family(batName, "Stream batches checked against a semantic domain.", "counter")
		for _, r := range rows {
			if r.name == "none" {
				continue
			}
			mw.Int(batName, obs.Label("domain", r.name), r.batches)
		}
		const valName = "autovalidate_domain_values_total"
		mw.Family(valName, "Values checked against a semantic domain, by verdict.", "counter")
		for _, r := range rows {
			if r.name == "none" {
				continue
			}
			mw.Int(valName, obs.Label("domain", r.name)+`,verdict="pass"`, r.hit)
			mw.Int(valName, obs.Label("domain", r.name)+`,verdict="fail"`, r.f)
		}
	}

	patterns := make([]string, 0, len(s.endpoints))
	for route := range s.endpoints {
		patterns = append(patterns, route)
	}
	sort.Strings(patterns)

	const reqName = "autovalidate_http_requests_total"
	mw.Family(reqName, "Requests served, by route.", "counter")
	for _, route := range patterns {
		mw.Int(reqName, obs.Label("endpoint", route), s.endpoints[route].requests.Load())
	}

	// Per-endpoint latency histograms: fixed buckets, rendered in the
	// cumulative form Prometheus expects. Routes that have served no
	// requests are skipped to keep the exposition small.
	const durName = "autovalidate_http_request_duration_seconds"
	mw.Family(durName, "Request latency, by route.", "histogram")
	for _, route := range patterns {
		mw.Histogram(durName, obs.Label("endpoint", route), s.endpoints[route].latency)
	}

	mw.WriteResponse(w)
}
