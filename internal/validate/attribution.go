package validate

// Failure attribution: when the monitor alarms, the interesting
// question is not "how many values missed" (the verdict already counts
// that) but "missed *how*" — did a feed start shipping ISO dates into a
// US-format column (charset divergence at one token), or did an
// upstream truncation clip every value (length class)? Attribute
// re-walks the batch's misses through the compiled program's Explain
// and aggregates them into classes keyed by (kind, token, position),
// each carrying a few redacted sample offenders. Redaction keeps the
// shape of a value while masking its content, so samples are safe to
// persist in the journal and ship through /events.

import (
	"sort"

	"autovalidate/internal/pattern"
)

// MaxAttributionSamples bounds the redacted sample offenders retained
// per failure class (the "K" of the journal event schema).
const MaxAttributionSamples = 3

// maxAttributionClasses bounds the distinct classes one verdict
// retains; a batch of random garbage should not balloon the journal.
const maxAttributionClasses = 8

// maxRedactedLen truncates redacted samples; the failure position of
// every retained class is within the first line of any sane value.
const maxRedactedLen = 48

// AttributionClass is one way the batch's values failed: the same
// failure kind, at the same pattern token, at the same byte position.
type AttributionClass struct {
	// Kind is the pattern-level failure class: "charset" (the value
	// diverged from the pattern's character classes) or "length" (every
	// byte fit but the value ended early or ran past the pattern).
	Kind string `json:"kind"`
	// Token is the 0-based index of the pattern token the matcher was
	// consuming when it died; a value equal to the pattern's token
	// count means the value extended past a complete match. TokenStr
	// renders that token in pattern notation ("$" past the end).
	Token    int    `json:"token"`
	TokenStr string `json:"token_str"`
	// Pos is the byte offset of the first sampled value's failure.
	Pos int `json:"pos"`
	// Count is the number of the batch's misses in this class.
	Count int `json:"count"`
	// Samples holds up to MaxAttributionSamples redacted offenders:
	// digits become 9, letters x/X, non-ASCII ?, punctuation survives.
	Samples []string `json:"samples,omitempty"`
}

// Attribution explains a batch's syntactic misses, most frequent class
// first.
type Attribution struct {
	// Misses counts the values attributed (the batch's pattern
	// non-conforming count).
	Misses  int                `json:"misses"`
	Classes []AttributionClass `json:"classes"`
}

// Redact masks a value's content while keeping its shape: digits
// become '9', lowercase letters 'x', uppercase 'X', bytes outside
// printable ASCII '?'; punctuation and spaces — the structural bytes
// pattern tokens key on — survive. Long values are truncated.
func Redact(v string) string {
	truncated := false
	if len(v) > maxRedactedLen {
		v = v[:maxRedactedLen]
		truncated = true
	}
	b := []byte(v)
	for i, c := range b {
		switch {
		case c >= '0' && c <= '9':
			b[i] = '9'
		case c >= 'a' && c <= 'z':
			b[i] = 'x'
		case c >= 'A' && c <= 'Z':
			b[i] = 'X'
		case c < 0x20 || c > 0x7e:
			b[i] = '?'
		}
	}
	if truncated {
		return string(b) + "..."
	}
	return string(b)
}

// tokenStr renders the pattern token a class died on; the one-past-
// the-end index renders as "$" (the value outran the pattern).
func tokenStr(p pattern.Pattern, idx int) string {
	if idx >= len(p.Toks) {
		return "$"
	}
	return p.Toks[idx].String()
}

type attrKey struct {
	kind  pattern.MissKind
	token int
}

// attrAccum folds misses into classes.
type attrAccum struct {
	order   []attrKey
	classes map[attrKey]*AttributionClass
	misses  int
}

func newAttrAccum() *attrAccum {
	return &attrAccum{classes: make(map[attrKey]*AttributionClass)}
}

func (a *attrAccum) add(p pattern.Pattern, miss pattern.Miss, value string, maxSamples int) {
	a.misses++
	k := attrKey{kind: miss.Kind, token: miss.Token}
	c := a.classes[k]
	if c == nil {
		if len(a.order) >= maxAttributionClasses {
			return // counted in Misses, not classed
		}
		c = &AttributionClass{
			Kind:     string(miss.Kind),
			Token:    miss.Token,
			TokenStr: tokenStr(p, miss.Token),
			Pos:      miss.Pos,
		}
		a.classes[k] = c
		a.order = append(a.order, k)
	}
	c.Count++
	if len(c.Samples) < maxSamples {
		c.Samples = append(c.Samples, Redact(value))
	}
}

func (a *attrAccum) result() *Attribution {
	if a.misses == 0 {
		return nil
	}
	out := &Attribution{Misses: a.misses, Classes: make([]AttributionClass, 0, len(a.order))}
	for _, k := range a.order {
		out.Classes = append(out.Classes, *a.classes[k])
	}
	// Most frequent first; ties keep first-seen order (stable).
	sort.SliceStable(out.Classes, func(i, j int) bool {
		return out.Classes[i].Count > out.Classes[j].Count
	})
	return out
}

// Attribute classifies a batch's misses against the rule's compiled
// program, retaining up to maxSamples redacted offenders per class.
// Returns nil when every value conforms. This is a full second pass
// over the batch — callers run it only on batches that alarmed.
func (r *Rule) Attribute(values [][]byte, maxSamples int) *Attribution {
	return Attribute(r, values, maxSamples)
}

// Attribute is Rule.Attribute over either value form.
func Attribute[V pattern.Value](r *Rule, values []V, maxSamples int) *Attribution {
	prog := r.Program()
	acc := newAttrAccum()
	for _, v := range values {
		if miss, ok := pattern.Explain(prog, v); !ok {
			acc.add(r.Pattern, miss, string(v), maxSamples)
		}
	}
	return acc.result()
}
