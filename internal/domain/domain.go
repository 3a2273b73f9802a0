// Package domain layers *semantic* validation over Auto-Validate's
// syntactic data-domain patterns. An inferred pattern accepts anything
// of the right shape — a UUID with a broken variant bit, a credit-card
// number failing its Luhn check, or Feb 30 in a date column all sail
// through pattern matching. A domain validator knows the semantics of
// one value domain (a checksum, an RFC grammar, the civil calendar, an
// accession-ID scheme) and rejects well-formed-but-invalid values the
// pattern cannot.
//
// The package follows the production shape of hapiq's validator
// registry: each Validator is a self-describing unit registered from an
// init() function (or dynamically, for learned domains like closed
// vocabularies), the registry orders validators by priority, and
// detection proposes a domain for a column by sampling its values —
// the pattern index proposes the column's syntax, the domain validator
// sharpens its precision.
package domain

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Validator is one semantic value domain. Implementations must be safe
// for concurrent use; all built-ins are stateless.
//
// Values arrive as byte slices — typically views into a pooled request
// body that is reused once the request is answered — so a validator must
// neither retain nor modify the slice it is given.
type Validator interface {
	// Name uniquely identifies the validator ("isbn13", "luhn", "uuid").
	Name() string
	// Domain names the validator's family: "checksum", "rfc",
	// "calendar", "accession", or "vocabulary".
	Domain() string
	// Description is a one-line human-readable summary.
	Description() string
	// CanValidate is a cheap syntactic gate: does the value even look
	// like a member of this domain? It must be a superset of Validate —
	// every value Validate accepts has CanValidate true — so a caller can
	// use it to route values cheaply.
	CanValidate([]byte) bool
	// Validate returns nil iff the value is a semantically valid member
	// of the domain; the error says what failed (bad check digit,
	// impossible calendar date, bad variant bits). Callers need not call
	// CanValidate first: Validate gates itself.
	Validate([]byte) error
	// Patterns returns the data-domain patterns (in the canonical token
	// notation of internal/pattern) that values of this domain typically
	// compile to — the documentation bridge from the syntactic pattern
	// index to this validator.
	Patterns() []string
	// Priority orders validators when several accept the same sample at
	// equal confidence; higher wins. More specific domains (structural
	// prefixes, rare grammars) should outrank generic ones (Luhn accepts
	// any digit run with one check digit).
	Priority() int
}

// base carries the descriptive half of a Validator so concrete
// validators only implement CanValidate and Validate.
type base struct {
	name     string
	domain   string
	desc     string
	patterns []string
	priority int
}

func (b base) Name() string        { return b.name }
func (b base) Domain() string      { return b.domain }
func (b base) Description() string { return b.desc }
func (b base) Patterns() []string  { return append([]string(nil), b.patterns...) }
func (b base) Priority() int       { return b.priority }

// reg is the process-wide validator registry.
var reg struct {
	mu     sync.RWMutex
	byName map[string]Validator
	sorted []Validator // priority-descending, name-ascending within ties
}

// Register adds a validator to the registry. Built-ins register from
// init() via register; embedding applications may add their own at
// startup. A nil validator, empty name, or duplicate name is rejected
// with an error and leaves the registry unchanged.
func Register(v Validator) error {
	if v == nil || v.Name() == "" {
		return fmt.Errorf("domain: register: nil validator or empty name")
	}
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if reg.byName == nil {
		reg.byName = make(map[string]Validator)
	}
	if _, dup := reg.byName[v.Name()]; dup {
		return fmt.Errorf("domain: validator %q already registered", v.Name())
	}
	reg.byName[v.Name()] = v
	reg.sorted = append(reg.sorted, v)
	sort.SliceStable(reg.sorted, func(i, j int) bool {
		if reg.sorted[i].Priority() != reg.sorted[j].Priority() {
			return reg.sorted[i].Priority() > reg.sorted[j].Priority()
		}
		return reg.sorted[i].Name() < reg.sorted[j].Name()
	})
	return nil
}

// initErr accumulates registration failures from the built-in init()
// functions. Built-in names are compile-time constants, so a non-nil
// value is a programmer error; InitError surfaces it to tests (and to
// any embedding application that wants a startup sanity check) without
// crashing the process at import time.
var initErr error

// register is Register for the built-in init() functions: failures are
// collected into initErr instead of being returned, because init() has
// nowhere to send an error. init() runs single-threaded before main, so
// the bare append is safe.
func register(v Validator) {
	if err := Register(v); err != nil {
		initErr = errors.Join(initErr, err)
	}
}

// InitError reports any registration failure among the built-in
// validators; it is nil in a correctly assembled binary.
func InitError() error { return initErr }

// Lookup returns the registered validator with the given name.
func Lookup(name string) (Validator, bool) {
	reg.mu.RLock()
	defer reg.mu.RUnlock()
	v, ok := reg.byName[name]
	return v, ok
}

// Validators returns a snapshot of the registered validators in
// priority order (highest first).
func Validators() []Validator {
	reg.mu.RLock()
	defer reg.mu.RUnlock()
	return append([]Validator(nil), reg.sorted...)
}

// Detection is the outcome of proposing a semantic domain for a column
// from a sample of its values.
type Detection struct {
	// Name is the winning validator's name; Family its Domain().
	Name   string `json:"name"`
	Family string `json:"family,omitempty"`
	// Confidence is the fraction of sampled non-empty values the
	// validator accepted as semantically valid.
	Confidence float64 `json:"confidence"`
	// Sampled and Valid are the raw counts behind Confidence.
	Sampled int `json:"sampled,omitempty"`
	Valid   int `json:"valid,omitempty"`
	// Vocab is the closed vocabulary for dictionary-backed domains
	// (Name == VocabularyName); nil for built-in validators.
	Vocab []string `json:"vocab,omitempty"`
}

// Detection tuning. A domain claims a column only when nearly every
// sampled value validates — the point is precision on top of an already
// plausible syntactic pattern, so a loose majority is not enough.
const (
	// MinConfidence is the accept threshold for Detect.
	MinConfidence = 0.9
	// minDetectSample is the fewest non-empty values detection will
	// decide from.
	minDetectSample = 8
	// maxDetectSample caps how many values detection examines; larger
	// columns are sampled with a fixed stride so the choice stays
	// deterministic.
	maxDetectSample = 256
)

// sample returns up to maxDetectSample non-empty values, stride-sampled
// so the result is deterministic for a given input, as byte views into
// one buffer.
func sample(values []string) [][]byte {
	nonEmpty := make([]string, 0, len(values))
	for _, v := range values {
		if v != "" {
			nonEmpty = append(nonEmpty, v)
		}
	}
	if len(nonEmpty) > maxDetectSample {
		picked := make([]string, 0, maxDetectSample)
		stride := float64(len(nonEmpty)) / maxDetectSample
		for i := 0; i < maxDetectSample; i++ {
			picked = append(picked, nonEmpty[int(float64(i)*stride)])
		}
		nonEmpty = picked
	}
	size := 0
	for _, v := range nonEmpty {
		size += len(v)
	}
	buf := make([]byte, 0, size)
	out := make([][]byte, len(nonEmpty))
	for i, v := range nonEmpty {
		buf = append(buf, v...)
		out[i] = buf[len(buf)-len(v):]
	}
	return out
}

// Detect proposes the best-matching registered domain for a column
// sample: the validator accepting the largest fraction of sampled
// values, provided that fraction reaches MinConfidence. Ties break by
// priority, then name (both already encoded in registry order). ok is
// false when no validator qualifies or the sample is too small.
func Detect(values []string) (Detection, bool) {
	return detect(sample(values), Validators())
}

func detect(sampled [][]byte, validators []Validator) (Detection, bool) {
	if len(sampled) < minDetectSample {
		return Detection{}, false
	}
	best := Detection{}
	for _, v := range validators {
		valid := 0
		for _, s := range sampled {
			if v.Validate(s) == nil {
				valid++
			}
		}
		conf := float64(valid) / float64(len(sampled))
		// Registry order is (priority desc, name asc), so a strict >
		// keeps the highest-priority validator among equals.
		if conf >= MinConfidence && conf > best.Confidence {
			best = Detection{
				Name:       v.Name(),
				Family:     v.Domain(),
				Confidence: conf,
				Sampled:    len(sampled),
				Valid:      valid,
			}
		}
	}
	return best, best.Name != ""
}

// Propose is Detect plus the learned fallback: when no built-in domain
// claims the column but its values look like a closed vocabulary
// (countries, department codes, status enums), a vocabulary domain is
// learned from the training values and proposed instead.
// The returned Detection then carries the vocabulary itself, so it can
// be persisted alongside a stream's rule and reconstructed with
// NewVocabulary after a restart.
func Propose(values []string) (Detection, bool) {
	sampled := sample(values)
	if d, ok := detect(sampled, Validators()); ok {
		return d, true
	}
	return proposeVocabulary(values)
}

// isDigit reports whether c is an ASCII decimal digit.
func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// allDigits reports whether b is non-empty and all decimal digits.
func allDigits(b []byte) bool {
	for _, c := range b {
		if !isDigit(c) {
			return false
		}
	}
	return len(b) > 0
}

// hasPrefixFold reports whether b starts with prefix, a lower-case
// ASCII string, ignoring the case of its letters.
func hasPrefixFold(b []byte, prefix string) bool {
	if len(b) < len(prefix) {
		return false
	}
	for i := 0; i < len(prefix); i++ {
		c, p := b[i], prefix[i]
		if c != p && (p < 'a' || p > 'z' || c|0x20 != p) {
			return false
		}
	}
	return true
}
