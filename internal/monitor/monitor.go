// Package monitor is the live half of continuous validation: an engine
// that evaluates each arriving batch of a registered stream against its
// compiled rule, keeps per-stream rolling history, and escalates from
// accept to drift alarm to quarantine to re-inference under a policy
// of three settings (Policy) and fixed constants for the rest.
//
// Two statistical signals combine per batch. The rule's own two-sample
// homogeneity test (paper §4) compares the batch's non-conforming
// fraction against the training distribution — that is drift relative
// to what the rule saw at inference time. On top of it, the monitor
// runs an exact binomial tail test of the observed non-conforming count
// against the rule's expected FPR bound from the offline index: even a
// rule trained on slightly dirty data should not see non-conformance
// exceed what FMDV's evidence predicted, and the Clopper–Pearson lower
// bound on the observed rate makes the exceedance auditable.
//
// When the stream's registry entry carries a detected semantic domain
// (internal/domain), the monitor additionally runs that domain's
// validator over the batch. Values that pass the syntactic pattern but
// fail the semantic check — a credit-card number with a broken Luhn
// digit, Feb 30 in a date column — are invisible to the homogeneity
// test, so they are added to the binomial test's evidence count: the
// pattern proposes, the domain validator sharpens.
package monitor

import (
	"fmt"
	"slices"
	"sync"

	"autovalidate/internal/domain"
	"autovalidate/internal/pattern"
	"autovalidate/internal/registry"
	"autovalidate/internal/stats"
	"autovalidate/internal/validate"
)

// Action is the monitor's per-batch decision.
type Action uint8

// Actions, in escalation order.
const (
	// Accept: the batch is consistent with the rule; load it.
	Accept Action = iota
	// Alarm: the batch drifted significantly; flag it for triage but
	// the drift is not yet persistent.
	Alarm
	// Quarantine: drift has persisted for QuarantineAfter consecutive
	// batches; hold the batch out of downstream consumption.
	Quarantine
	// Reinfer: the rule itself should be re-learned — either drift
	// persisted past ReinferAfter batches (the stream's "normal" has
	// changed) or the rule's index evidence went stale after an ingest.
	Reinfer
)

// String names the action.
func (a Action) String() string {
	switch a {
	case Alarm:
		return "alarm"
	case Quarantine:
		return "quarantine"
	case Reinfer:
		return "reinfer"
	default:
		return "accept"
	}
}

// ActionFromName parses an action's string form — the inverse of
// String, used when rehydrating journaled decisions (whose JSON
// carries only the name).
func ActionFromName(s string) (Action, bool) {
	switch s {
	case "accept":
		return Accept, true
	case "alarm":
		return Alarm, true
	case "quarantine":
		return Quarantine, true
	case "reinfer":
		return Reinfer, true
	}
	return Accept, false
}

// The fixed half of the escalation behaviour. An alarming batch on a
// stale rule (index evidence outdated by ingest) always escalates
// straight to Reinfer.
const (
	// window is the ring-buffer capacity of per-stream batch history.
	window = 64
	// ewmaAlpha weights the newest batch in the pass-rate EWMA.
	ewmaAlpha = 0.2
	// confidence is the Clopper–Pearson confidence level reported with
	// each verdict.
	confidence = 0.95
	// minBatch is the smallest batch the tests run on; smaller batches
	// are accepted outright (too little evidence either way).
	minBatch = 8
)

// Policy configures the escalation behaviour. The zero value is not
// useful; start from DefaultPolicy.
type Policy struct {
	// Alpha is the significance level of the binomial drift test
	// against the rule's expected FPR bound.
	Alpha float64
	// QuarantineAfter escalates to Quarantine after this many
	// consecutive alarming batches; ReinferAfter (>= QuarantineAfter)
	// escalates further to Reinfer. Zero disables the respective
	// escalation.
	QuarantineAfter int
	ReinferAfter    int
}

// DefaultPolicy returns the recommended configuration: drift test at
// 0.01 (matching the paper's validation significance), quarantine
// after 3 consecutive alarms, re-inference after 6.
func DefaultPolicy() Policy {
	return Policy{Alpha: 0.01, QuarantineAfter: 3, ReinferAfter: 6}
}

// Verdict is the record of one checked batch.
type Verdict struct {
	// Seq numbers the batch within its stream (1-based, monotonically
	// increasing across the stream's lifetime, not just the window).
	Seq int `json:"seq"`
	// StreamVersion is the rule version the batch was checked against.
	StreamVersion int `json:"stream_version"`
	// Total and NonConforming count the batch's values.
	Total         int `json:"total"`
	NonConforming int `json:"non_conforming"`
	// PValue is the §4 homogeneity test p-value vs the training
	// distribution; DriftP the binomial tail p-value vs the rule's
	// expected FPR bound; RateLo the Clopper–Pearson lower confidence
	// bound on the observed non-conforming rate.
	PValue float64 `json:"p_value"`
	DriftP float64 `json:"drift_p"`
	RateLo float64 `json:"rate_lo"`
	// Action is the decision taken on the batch.
	Action Action `json:"-"`
	// ActionName is Action's string form (for JSON consumers).
	ActionName string `json:"action"`
	// Examples holds a few non-conforming values for triage.
	Examples []string `json:"examples,omitempty"`
	// Domain names the semantic domain the batch was additionally
	// checked against (empty when the stream has none). DomainInvalid
	// counts values failing the semantic check; of those,
	// DomainOnlyInvalid passed the syntactic pattern — the failures only
	// the domain validator can see, which join the binomial drift
	// evidence. DomainExamples holds a few of them for triage.
	Domain            string   `json:"domain,omitempty"`
	DomainInvalid     int      `json:"domain_invalid,omitempty"`
	DomainOnlyInvalid int      `json:"domain_only_invalid,omitempty"`
	DomainExamples    []string `json:"domain_examples,omitempty"`
	// Attribution classifies the batch's syntactic misses against the
	// compiled program — which token/position each miss died at, and a
	// few redacted sample offenders per class. Populated only when the
	// batch alarmed: conforming batches don't pay the extra pass.
	Attribution *validate.Attribution `json:"attribution,omitempty"`
}

// Totals are a stream's cumulative counters after a batch is folded
// in — together with the verdict they are everything journal
// rehydration needs to rebuild the stream's rolling state.
type Totals struct {
	Values        int `json:"values"`
	NonConforming int `json:"non_conforming"`
	DomainInvalid int `json:"domain_invalid,omitempty"`
	Alarms        int `json:"alarms"`
	Quarantined   int `json:"quarantined"`
	Reinfers      int `json:"reinfers"`
}

// Decision is the outcome of one Check call: the batch's verdict plus
// the stream-level rolling state after folding it in.
type Decision struct {
	Verdict Verdict `json:"verdict"`
	// PassEWMA is the exponentially weighted moving average of per-batch
	// pass rates after this batch.
	PassEWMA float64 `json:"pass_ewma"`
	// ConsecutiveAlarms counts the current run of non-accept batches.
	ConsecutiveAlarms int `json:"consecutive_alarms"`
	// Stale mirrors the stream's staleness at check time.
	Stale bool `json:"stale"`
	// Transition is true when this batch changed the stream's state —
	// its action differs from the previous batch's (or it is the
	// stream's first). The journal records transitions even on accept,
	// so an escalation ladder's end is as durable as its start while
	// steady-state accepts stay off the journal entirely.
	Transition bool `json:"transition,omitempty"`
	// Totals are the stream's cumulative counters including this batch.
	Totals Totals `json:"totals"`
}

// History is a snapshot of one stream's rolling state.
type History struct {
	Stream        string  `json:"stream"`
	Batches       int     `json:"batches"`
	Values        int     `json:"values"`
	NonConforming int     `json:"non_conforming"`
	DomainInvalid int     `json:"domain_invalid,omitempty"`
	Alarms        int     `json:"alarms"`
	Quarantined   int     `json:"quarantined"`
	Reinfers      int     `json:"reinfers"`
	PassEWMA      float64 `json:"pass_ewma"`
	ConsecAlarms  int     `json:"consecutive_alarms"`
	// Window holds the retained verdicts, oldest first.
	Window []Verdict `json:"window"`
}

// streamState is the per-stream rolling state: a ring buffer of
// verdicts plus running aggregates.
type streamState struct {
	ring   []Verdict // capacity window
	head   int       // next write position
	filled bool

	seq           int
	values        int
	nonConforming int
	domainInvalid int
	alarms        int
	quarantined   int
	reinfers      int
	ewma          float64
	consec        int
	// lastAction is the most recent batch's decision — what the
	// stream-state telemetry gauge reports.
	lastAction Action

	// validator is the stream's resolved domain validator (nil when the
	// domain is unknown to this build) and the rule version it was
	// resolved for; see Engine.validatorFor.
	validator        domain.Validator
	validatorRule    *validate.Rule
	validatorVersion int
}

// push appends a verdict to the ring buffer.
func (st *streamState) push(v Verdict) {
	if len(st.ring) < window {
		st.ring = append(st.ring, v)
		return
	}
	st.ring[st.head] = v
	st.head = (st.head + 1) % len(st.ring)
	st.filled = true
}

// snapshot returns the retained verdicts oldest-first.
func (st *streamState) snapshot() []Verdict {
	if !st.filled {
		return append([]Verdict(nil), st.ring...)
	}
	out := make([]Verdict, 0, len(st.ring))
	out = append(out, st.ring[st.head:]...)
	out = append(out, st.ring[:st.head]...)
	return out
}

// Engine evaluates batches for registered streams. Safe for concurrent
// use; per-stream state updates are serialized, while the pattern
// matching itself runs outside any lock.
type Engine struct {
	policy Policy

	mu      sync.Mutex
	streams map[string]*streamState
}

// NewEngine builds an engine under the given policy (an Alpha outside
// (0, 1) falls back to DefaultPolicy's).
func NewEngine(p Policy) *Engine {
	if p.Alpha <= 0 || p.Alpha >= 1 {
		p.Alpha = DefaultPolicy().Alpha
	}
	if p.ReinferAfter > 0 && p.QuarantineAfter > 0 && p.ReinferAfter < p.QuarantineAfter {
		p.ReinferAfter = p.QuarantineAfter
	}
	return &Engine{policy: p, streams: make(map[string]*streamState)}
}

// fprBound is the expected non-conforming bound the binomial drift test
// runs against: the worse of the rule's index-estimated FPR and its
// training-time non-conforming rate, floored at a tiny rate so a
// perfectly clean training column doesn't alarm on a single stray value
// in a huge batch.
func fprBound(rule *validate.Rule) float64 {
	bound := rule.EstimatedFPR
	if t := rule.TrainTheta(); t > bound {
		bound = t
	}
	const floor = 1e-4
	if bound < floor {
		bound = floor
	}
	return bound
}

// validatorFor returns the runnable validator of the stream's persisted
// domain, resolved once per rule version and kept with the stream's
// rolling state (so Reset drops it too): a learned
// vocabulary's dictionary is rebuilt from the persisted words and a
// built-in is fetched from the domain registry only when the rule
// changes, not on every batch. The rule pointer is compared beside the
// version number because a replaced registry can bring a different
// rule under a version this engine has already seen. A vocabulary is
// built under the engine lock — once per version, a map insert per
// word. A domain name this build does not know (a registry written by
// a newer or embedding binary) degrades to syntactic-only monitoring
// rather than failing the stream.
func (e *Engine) validatorFor(stream registry.Stream) domain.Validator {
	d := stream.Domain
	if d.Name == "" {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.stateLocked(stream.Name)
	if st.validatorRule != stream.Rule || st.validatorVersion != stream.Version {
		if d.Name == domain.VocabularyName && len(d.Vocab) > 0 {
			st.validator = domain.NewVocabulary(d.Vocab)
		} else {
			st.validator, _ = domain.Lookup(d.Name) // nil when unknown
		}
		st.validatorRule, st.validatorVersion = stream.Rule, stream.Version
	}
	return st.validator
}

// stateLocked returns the stream's rolling state, creating it on first
// use. Callers hold e.mu.
func (e *Engine) stateLocked(name string) *streamState {
	st := e.streams[name]
	if st == nil {
		st = &streamState{}
		e.streams[name] = st
	}
	return st
}

// maxDomainExamples bounds the semantically invalid values retained per
// verdict, mirroring the pattern report's example cap.
const maxDomainExamples = 5

// scratchPool holds the buffer a batch of string values is copied
// through, one value at a time, for the byte-reading domain validators;
// a buffer grown past maxScratch by an outsized value is not kept.
var scratchPool = sync.Pool{New: func() any { b := make([]byte, 0, 64); return &b }}

const maxScratch = 64 << 10

// Check evaluates one batch of the stream against its rule and folds
// the verdict into the stream's rolling history. The stream snapshot
// comes from the registry; Check never mutates it.
func (e *Engine) Check(stream registry.Stream, values []string) (Decision, error) {
	return check(e, stream, values)
}

// CheckBytes is Check over a decoded column slab: values are byte views
// (typically into one contiguous request buffer), handed to the pattern
// kernel and the stream's domain validator as they are. Strings are
// materialized only for the handful of retained examples.
func (e *Engine) CheckBytes(stream registry.Stream, values [][]byte) (Decision, error) {
	return check(e, stream, values)
}

// check is the one body behind Check and CheckBytes.
func check[V pattern.Value](e *Engine, stream registry.Stream, values []V) (Decision, error) {
	if stream.Rule == nil {
		return Decision{}, fmt.Errorf("monitor: stream %q has no rule", stream.Name)
	}
	if len(values) == 0 {
		return Decision{}, fmt.Errorf("monitor: stream %q: %w", stream.Name, validate.ErrEmptyBatch)
	}

	// Pattern matching and the homogeneity test run lock-free.
	rep, err := validate.Apply(stream.Rule, values)
	if err != nil {
		return Decision{}, fmt.Errorf("monitor: stream %q: %w", stream.Name, err)
	}

	// Semantic pass: run the stream's domain validator, if any, and
	// count the failures the pattern cannot see. Only values that
	// *conform* to the pattern add evidence — pattern-non-conforming
	// values are already counted by the syntactic report, and counting
	// them twice would double-weight ordinary drift.
	v := Verdict{
		StreamVersion: stream.Version,
		Total:         rep.Total,
		NonConforming: rep.NonConforming,
		PValue:        rep.PValue,
		Examples:      rep.Examples,
	}
	if dv := e.validatorFor(stream); dv != nil {
		v.Domain = stream.Domain.Name
		prog := stream.Rule.Program()
		// Validators read bytes: byte views go straight in, and each
		// string is copied into one pooled scratch buffer first.
		views, _ := any(values).([][]byte)
		scratch := scratchPool.Get().(*[]byte)
		for i, val := range values {
			var b []byte
			if views != nil {
				b = views[i]
			} else {
				*scratch = append((*scratch)[:0], val...)
				b = *scratch
			}
			if dv.Validate(b) == nil {
				continue
			}
			v.DomainInvalid++
			if pattern.Match(prog, val) {
				v.DomainOnlyInvalid++
				if len(v.DomainExamples) < maxDomainExamples {
					v.DomainExamples = append(v.DomainExamples, string(val))
				}
			}
		}
		if cap(*scratch) <= maxScratch {
			scratchPool.Put(scratch)
		}
	}

	alarmed := e.score(stream, &v, rep.Alarm)
	if alarmed && v.NonConforming > 0 {
		v.Attribution = validate.Attribute(stream.Rule, values, validate.MaxAttributionSamples)
	}
	return e.fold(stream, v, alarmed), nil
}

// score runs the lock-free statistical half of a batch check: the
// binomial drift test over the combined evidence, filling the verdict's
// DriftP/RateLo and reporting whether the batch alarms. Callers that
// want failure attribution compute it between score and fold — still
// outside the engine lock, and only for batches that actually alarmed.
func (e *Engine) score(stream registry.Stream, v *Verdict, alarm bool) bool {
	bound := fprBound(stream.Rule)
	evidence := v.NonConforming + v.DomainOnlyInvalid
	v.DriftP = stats.BinomialTailP(evidence, v.Total, bound)
	// stats.ClopperPearson's lower bound, without the upper one that no
	// verdict reports.
	v.RateLo = 0
	if k := min(evidence, v.Total); k > 0 {
		v.RateLo = stats.BetaQuantile((1-float64(confidence))/2, float64(k), float64(v.Total-k+1))
	}

	small := v.Total < minBatch
	return !small && (alarm || v.DriftP < e.policy.Alpha)
}

// fold applies the escalation decision and folds the verdict into the
// stream's rolling history under the engine lock.
func (e *Engine) fold(stream registry.Stream, v Verdict, alarmed bool) Decision {
	evidence := v.NonConforming + v.DomainOnlyInvalid

	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.stateLocked(stream.Name)
	st.seq++
	v.Seq = st.seq

	if alarmed {
		st.consec++
	} else {
		st.consec = 0
	}
	switch {
	case alarmed && stream.Stale:
		v.Action = Reinfer
	case alarmed && e.policy.ReinferAfter > 0 && st.consec >= e.policy.ReinferAfter:
		v.Action = Reinfer
	case alarmed && e.policy.QuarantineAfter > 0 && st.consec >= e.policy.QuarantineAfter:
		v.Action = Quarantine
	case alarmed:
		v.Action = Alarm
	default:
		v.Action = Accept
	}
	v.ActionName = v.Action.String()

	// Semantically invalid values count against the pass rate exactly
	// once (evidence is the union of the two failure classes).
	passRate := 1 - float64(evidence)/float64(v.Total)
	if st.seq == 1 {
		st.ewma = passRate
	} else {
		st.ewma = ewmaAlpha*passRate + (1-ewmaAlpha)*st.ewma
	}
	st.values += v.Total
	st.nonConforming += v.NonConforming
	st.domainInvalid += v.DomainInvalid
	switch v.Action {
	case Alarm:
		st.alarms++
	case Quarantine:
		st.alarms++
		st.quarantined++
	case Reinfer:
		st.alarms++
		st.reinfers++
	}
	transition := st.seq == 1 || st.lastAction != v.Action
	st.lastAction = v.Action
	st.push(v)

	return Decision{
		Verdict:           v,
		PassEWMA:          st.ewma,
		ConsecutiveAlarms: st.consec,
		Stale:             stream.Stale,
		Transition:        transition,
		Totals: Totals{
			Values:        st.values,
			NonConforming: st.nonConforming,
			DomainInvalid: st.domainInvalid,
			Alarms:        st.alarms,
			Quarantined:   st.quarantined,
			Reinfers:      st.reinfers,
		},
	}
}

// Restore seeds a stream's rolling state from a previously journaled
// decision — the startup rehydration path, so a process restart does
// not reset escalation ladders or the pass-rate EWMA. It is a no-op
// when the stream already holds live state at or past the decision's
// sequence number (live history always wins over the journal tail).
//
// The restored window holds only the journaled verdict: steady-state
// accepts are deliberately not journaled, so the intermediate window
// contents are gone. Escalation correctness needs only seq, the EWMA,
// the consecutive-alarm run, and the cumulative counters — all carried
// by the decision.
func (e *Engine) Restore(name string, dec Decision) {
	v := dec.Verdict
	if v.Seq <= 0 {
		return
	}
	if act, ok := ActionFromName(v.ActionName); ok {
		v.Action = act
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.stateLocked(name)
	if st.seq >= v.Seq {
		return
	}
	st.seq = v.Seq
	st.values = dec.Totals.Values
	st.nonConforming = dec.Totals.NonConforming
	st.domainInvalid = dec.Totals.DomainInvalid
	st.alarms = dec.Totals.Alarms
	st.quarantined = dec.Totals.Quarantined
	st.reinfers = dec.Totals.Reinfers
	st.ewma = dec.PassEWMA
	st.consec = dec.ConsecutiveAlarms
	st.lastAction = v.Action
	st.ring = st.ring[:0]
	st.head = 0
	st.filled = false
	st.push(v)
}

// Reset drops the rolling state of one stream — called when its rule is
// re-inferred, since history accumulated under the old rule no longer
// describes the new one.
func (e *Engine) Reset(name string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	delete(e.streams, name)
}

// SameRule reports whether history judged against stream a still
// describes stream b: the same version, and a rule the drift test reads
// alike (pattern, estimated FPR, training counts, test, α, domain). A
// restarted leader can bring another rule under a version seen before.
func SameRule(a, b registry.Stream) bool {
	ra, rb := a.Rule, b.Rule
	return a.Version == b.Version &&
		ra.Pattern.Equal(rb.Pattern) &&
		ra.EstimatedFPR == rb.EstimatedFPR &&
		ra.TrainNonConforming == rb.TrainNonConforming &&
		ra.TrainTotal == rb.TrainTotal &&
		ra.Test == rb.Test && ra.Alpha == rb.Alpha &&
		a.Domain.Name == b.Domain.Name &&
		slices.Equal(a.Domain.Vocab, b.Domain.Vocab)
}

// States reports each checked stream's most recent action — the
// source of the autovalidate_stream_state telemetry gauges, so an
// operator's scrape sees quarantines and re-inference escalations
// without querying every stream's history.
func (e *Engine) States() map[string]Action {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string]Action, len(e.streams))
	for name, st := range e.streams {
		out[name] = st.lastAction
	}
	return out
}

// History snapshots one stream's rolling state; ok is false when the
// stream has never been checked.
func (e *Engine) History(name string) (History, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.streams[name]
	if st == nil {
		return History{Stream: name}, false
	}
	return History{
		Stream:        name,
		Batches:       st.seq,
		Values:        st.values,
		NonConforming: st.nonConforming,
		DomainInvalid: st.domainInvalid,
		Alarms:        st.alarms,
		Quarantined:   st.quarantined,
		Reinfers:      st.reinfers,
		PassEWMA:      st.ewma,
		ConsecAlarms:  st.consec,
		Window:        st.snapshot(),
	}, true
}
