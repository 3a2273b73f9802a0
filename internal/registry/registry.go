// Package registry is the durable half of continuous validation: a
// versioned, persistent store of named streams and their compiled
// validation rules. The paper's deployment story (§6) is not one-shot
// validation but recurring pipelines — a rule is inferred once and then
// checks every fresh batch of the same stream — so the rule needs a
// durable home keyed by a stable stream name, a version history (a
// re-inference bumps the version; old versions stay readable for audit),
// and an invalidation signal when the offline index the rule's evidence
// came from moves on (a POST /ingest bumps the index generation; rules
// inferred against older generations are marked stale).
//
// The registry is safe for concurrent use: lookups return snapshot
// copies, so a reader can never observe a half-applied update.
package registry

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"unicode/utf8"

	"autovalidate/internal/core"
	"autovalidate/internal/domain"
	"autovalidate/internal/index"
	"autovalidate/internal/validate"
)

// Stream is one version of one named stream's compiled validation rule,
// together with the evidence snapshot needed to audit and re-infer it.
type Stream struct {
	// Name is the stream's stable identifier (e.g. "sales.csv/locale").
	Name string
	// Version counts re-inferences, starting at 1. Registering over an
	// existing stream appends a new version; old versions stay readable.
	Version int
	// Rule is the compiled validation rule: the data-domain pattern, its
	// estimated FPR from the offline index (FMDV's evidence snapshot),
	// and the training non-conforming statistics of the drift test.
	Rule *validate.Rule
	// Options are the inference parameters the rule was produced with,
	// kept so re-inference after drift uses the same configuration.
	Options core.Options
	// Domain is the semantic domain detected from the training column,
	// if any (zero Name means purely syntactic validation). For learned
	// closed-vocabulary domains the Detection carries the vocabulary
	// itself, so the validator is reconstructable after a reload.
	Domain domain.Detection
	// IndexGeneration is the offline index's generation counter at
	// inference time — the provenance of the rule's FPR evidence.
	IndexGeneration uint64
	// Stale is set when the index has ingested new evidence since this
	// rule was inferred (its FPR snapshot no longer reflects the lake).
	// A stale rule still validates; the monitor escalates it to
	// re-inference.
	Stale bool
}

// record is the registry's internal per-name state: the full version
// history, last entry latest.
type record struct {
	versions []Stream
}

// Registry is a concurrent-safe, versioned store of named streams.
// The zero value is not usable; call New or Load.
type Registry struct {
	mu      sync.RWMutex
	streams map[string]*record
	// epoch counts mutations (PutDomain, Delete, MarkStale, ReplaceFrom)
	// since the registry was created. The replication layer compares a
	// leader's epoch against the one a follower last fetched to decide
	// whether the registry needs re-shipping; it is process-local state
	// and is not persisted, so the follower compares it only against the
	// leader process it bootstrapped from (the snapshot's leader id).
	epoch uint64
}

// Epoch returns the mutation counter. Two equal epochs from the same
// process mean the registry is unchanged between the two reads; epochs
// of two processes say nothing about each other, which is why a cluster
// follower sends back the leader id with its epoch.
func (r *Registry) Epoch() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.epoch
}

// ReplaceFrom swaps this registry's entire contents for src's — the
// follower-side install of a replicated registry. src is adopted, not
// copied; the caller must not use src afterwards. The epoch advances so
// local observers see the change.
func (r *Registry) ReplaceFrom(src *Registry) {
	src.mu.RLock()
	streams := src.streams
	src.mu.RUnlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.streams = streams
	r.epoch++
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{streams: make(map[string]*record)}
}

// ErrBadName reports a stream name the registry refuses: empty, or
// not valid UTF-8. The file format stores names as JSON strings, which
// would spell each invalid byte U+FFFD, so two such names would reload
// as one and a lone one under a different name.
var ErrBadName = errors.New("registry: bad stream name")

func checkName(name string) error {
	if name == "" {
		return fmt.Errorf("%w: empty", ErrBadName)
	}
	if !utf8.ValidString(name) {
		return fmt.Errorf("%w: %q is not valid UTF-8", ErrBadName, name)
	}
	return nil
}

// Learn is the one way a stream's rule is learned: it infers the rule
// from the training column against idx under opt, proposes a semantic
// domain from the same column, and appends both as the stream's next
// version at idx's generation. A name PutDomain would refuse is refused
// before anything is inferred; an inference error is returned as is
// (errors.Is core.ErrNoFeasible, ...), and nothing is appended.
func (r *Registry) Learn(name string, train []string, idx *index.Index, opt core.Options) (Stream, error) {
	if err := checkName(name); err != nil {
		return Stream{}, err
	}
	rule, err := core.Infer(train, idx, opt)
	if err != nil {
		return Stream{}, err
	}
	dom, _ := domain.Propose(train)
	return r.PutDomain(name, rule, opt, idx.Generation, dom)
}

// PutDomain registers (or re-registers) a stream: the rule is appended
// as a new version inferred at index generation gen, and the new
// version's snapshot is returned. The detected semantic domain dom is
// persisted alongside the rule, and the monitor runs the named domain
// validator over every future batch of the stream. A nil rule or a
// name that is empty or not valid UTF-8 is an error.
func (r *Registry) PutDomain(name string, rule *validate.Rule, opt core.Options, gen uint64, dom domain.Detection) (Stream, error) {
	if err := checkName(name); err != nil {
		return Stream{}, err
	}
	if rule == nil {
		return Stream{}, fmt.Errorf("registry: nil rule for stream %q", name)
	}
	// Compile the rule's matching program at registration time, outside
	// the lock: no checked batch should pay the one-off compilation cost.
	rule.Precompile()
	r.mu.Lock()
	defer r.mu.Unlock()
	rec := r.streams[name]
	if rec == nil {
		rec = &record{}
		r.streams[name] = rec
	}
	s := Stream{
		Name:            name,
		Version:         len(rec.versions) + 1,
		Rule:            rule,
		Options:         opt,
		Domain:          dom,
		IndexGeneration: gen,
	}
	rec.versions = append(rec.versions, s)
	r.epoch++
	return s, nil
}

// Get returns a snapshot of the latest version of the named stream.
func (r *Registry) Get(name string) (Stream, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	rec := r.streams[name]
	if rec == nil || len(rec.versions) == 0 {
		return Stream{}, false
	}
	return rec.versions[len(rec.versions)-1], true
}

// GetVersion returns a snapshot of one historical version (1-based).
func (r *Registry) GetVersion(name string, version int) (Stream, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	rec := r.streams[name]
	if rec == nil || version < 1 || version > len(rec.versions) {
		return Stream{}, false
	}
	return rec.versions[version-1], true
}

// Versions returns how many versions the named stream has (0 if absent).
func (r *Registry) Versions(name string) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	rec := r.streams[name]
	if rec == nil {
		return 0
	}
	return len(rec.versions)
}

// Delete removes a stream and its whole version history, reporting
// whether it existed.
func (r *Registry) Delete(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.streams[name]
	delete(r.streams, name)
	if ok {
		r.epoch++
	}
	return ok
}

// Names returns the registered stream names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.streams))
	for name := range r.streams {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of registered streams.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.streams)
}

// MarkStale flags every stream whose latest version was inferred before
// the given index generation. The serving layer calls this in the same
// critical section as its copy-on-write index swap: new evidence can
// change which pattern FMDV would select, so rules inferred against the
// old index no longer carry a trustworthy FPR snapshot. It returns the
// number of streams newly marked.
func (r *Registry) MarkStale(currentGen uint64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	marked := 0
	for _, rec := range r.streams {
		if len(rec.versions) == 0 {
			continue
		}
		latest := &rec.versions[len(rec.versions)-1]
		if !latest.Stale && latest.IndexGeneration < currentGen {
			latest.Stale = true
			marked++
		}
	}
	if marked > 0 {
		r.epoch++
	}
	return marked
}
