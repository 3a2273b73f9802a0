package evalbench

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"autovalidate/internal/core"
	"autovalidate/internal/datagen"
	"autovalidate/internal/domain"
	"autovalidate/internal/monitor"
	"autovalidate/internal/registry"
)

// The replay below plays the bench lake as day-by-day streams — the
// paper's §6 deployment setting, where a rule inferred once checks every
// fresh batch of the same recurring pipeline. Each benchmark column
// becomes a registered stream; clean batches drawn from its generating
// domain arrive daily, and from driftDay onward a fixed fraction of every
// batch is corrupted.

// replayParams sizes the replay: drift starts on day driftDay (1-based)
// and corrupts driftFrac of every batch from then on.
type replayParams struct {
	streams, days, driftDay, batchSize int
	driftFrac                          float64
}

// streamResult is one stream's replay outcome. latency is the number of
// days from injection to the first batch escalated past accept (0 = the
// first drifted batch), -1 when none was; falseAlarms counts pre-drift
// batches escalated past accept.
type streamResult struct {
	stream, domain string
	detected       bool
	latency        int
	falseAlarms    int
	reinferred     bool
}

// replayResult aggregates the replay.
type replayResult struct {
	skipped        int // benchmark cases without a feasible rule or replayable domain
	detected       int
	meanLatency    float64 // over detected streams
	falseAlarmRate float64 // non-accept fraction of pre-drift batches
	perStream      []streamResult
}

// replay runs the Enterprise benchmark as recurring streams with
// injected drift. Everything is seeded from the environment config.
func replay(e *Env, p replayParams) replayResult {
	opt := core.DefaultOptions()
	opt.R, opt.M, opt.Theta, opt.Tau = e.Cfg.R, e.Cfg.M, e.Cfg.Theta, e.Cfg.Tau

	reg := registry.New()
	eng := monitor.NewEngine(monitor.DefaultPolicy())
	rng := rand.New(rand.NewSource(e.Cfg.Seed + 911))

	var res replayResult
	for _, ci := range e.BE.PatternCases() {
		if len(res.perStream) >= p.streams {
			break
		}
		c := e.BE.Cases[ci]
		dom := strings.TrimPrefix(c.Domain, "dirty:")
		// The stream must be replayable: fresh batches of its domain.
		if _, ok := datagen.DomainByName(dom); !ok {
			res.skipped++
			continue
		}
		rule, err := core.Infer(c.Train, e.IdxE, opt)
		if err != nil {
			res.skipped++
			continue
		}
		name := fmt.Sprintf("%s:%s", c.Column.Table, c.Column.Name)
		if _, err := reg.PutDomain(name, rule, opt, 0, domain.Detection{}); err != nil {
			res.skipped++
			continue
		}
		res.perStream = append(res.perStream, streamResult{stream: name, domain: dom, latency: -1})
	}

	preDriftBatches, preDriftAlarms := 0, 0
	for day := 1; day <= p.days; day++ {
		for i := range res.perStream {
			sr := &res.perStream[i]
			batch, err := datagen.FreshColumn(sr.domain, p.batchSize, e.Cfg.Seed+int64(1000*day)+int64(i))
			if err != nil {
				continue
			}
			if day >= p.driftDay {
				// A corrupted value gains a trailing marker that breaks
				// any anchored data-domain pattern, modelling an upstream
				// format change.
				for j := range batch {
					if rng.Float64() < p.driftFrac {
						batch[j] += "~9"
					}
				}
			}
			stream, ok := reg.Get(sr.stream)
			if !ok {
				continue
			}
			dec, err := eng.Check(stream, batch)
			if err != nil {
				continue
			}
			escalated := dec.Verdict.Action != monitor.Accept
			if day < p.driftDay {
				preDriftBatches++
				if escalated {
					preDriftAlarms++
					sr.falseAlarms++
				}
				continue
			}
			if escalated && !sr.detected {
				sr.detected = true
				sr.latency = day - p.driftDay
			}
			if dec.Verdict.Action == monitor.Reinfer {
				sr.reinferred = true
				// Mirror the serving layer: re-learn from the drifted
				// batch and carry on under the new rule.
				if rule, err := core.Infer(batch, e.IdxE, stream.Options); err == nil {
					if _, err := reg.PutDomain(sr.stream, rule, stream.Options, 0, domain.Detection{}); err == nil {
						eng.Reset(sr.stream)
					}
				}
			}
		}
	}

	latSum := 0
	for _, sr := range res.perStream {
		if sr.detected {
			res.detected++
			latSum += sr.latency
		}
	}
	if res.detected > 0 {
		res.meanLatency = float64(latSum) / float64(res.detected)
	}
	if preDriftBatches > 0 {
		res.falseAlarmRate = float64(preDriftAlarms) / float64(preDriftBatches)
	}
	return res
}

// TestMonitorExperimentDetectsInjectedDrift is the acceptance check for
// continuous validation — the monitor catches drift without crying
// wolf: on the quick bench lake, injected drift must be detected on
// most streams, quickly, without drowning the pre-drift days in false
// alarms.
func TestMonitorExperimentDetectsInjectedDrift(t *testing.T) {
	e := quickEnv(t)
	p := replayParams{streams: 10, days: 8, driftDay: 5, batchSize: 100, driftFrac: 0.25}
	r := replay(e, p)
	streams := len(r.perStream)
	defer func() {
		if t.Failed() {
			for _, sr := range r.perStream {
				t.Logf("%-34s %-14s detected=%-5v latency=%-2d false-alarms=%d reinferred=%v",
					sr.stream, sr.domain, sr.detected, sr.latency, sr.falseAlarms, sr.reinferred)
			}
		}
	}()

	if streams < 5 {
		t.Fatalf("only %d streams registered (%d skipped); too few to judge detection", streams, r.skipped)
	}
	if got := float64(r.detected) / float64(streams); got < 0.8 {
		t.Errorf("detection rate %.2f (%d/%d), want >= 0.8", got, r.detected, streams)
	}
	if r.meanLatency > 1.5 {
		t.Errorf("mean detection latency %.2f days, want <= 1.5 (20%%+ corruption should alarm fast)", r.meanLatency)
	}
	if r.falseAlarmRate > 0.1 {
		t.Errorf("false-alarm rate %.3f of pre-drift batches, want <= 0.1", r.falseAlarmRate)
	}
	for _, sr := range r.perStream {
		if sr.detected && (sr.latency < 0 || sr.latency > p.days-p.driftDay) {
			t.Errorf("stream %s: implausible latency %d", sr.stream, sr.latency)
		}
		if !sr.detected && sr.latency != -1 {
			t.Errorf("stream %s: undetected but latency %d", sr.stream, sr.latency)
		}
	}

	// Determinism: the replay is fully seeded.
	again := replay(e, p)
	if again.detected != r.detected || again.meanLatency != r.meanLatency || again.falseAlarmRate != r.falseAlarmRate {
		t.Errorf("replay not deterministic: %+v vs %+v", again, r)
	}
}
