package baselines

import (
	"math"
	"slices"

	"autovalidate/internal/pattern"
	"autovalidate/internal/tokens"
)

// PWheel implements Potter's Wheel-style pattern profiling (§5.2): among
// the patterns consistent with the column it selects the one minimizing
// description length — the pattern that best *summarizes* the observed
// values. The paper's point is that the MDL winner is systematically too
// specific for validation (constants like "Mar" and "2019" are cheap to
// encode when the training window is narrow), which is what this
// implementation reproduces.
type PWheel struct{}

// Name implements Method.
func (PWheel) Name() string { return "PWheel" }

// Train implements Method.
func (PWheel) Train(values []string) (Rule, error) {
	p, ok := MDLPattern(values)
	if !ok {
		return nil, ErrNoRule
	}
	return newPatternRule(p), nil
}

// pwheelMinCoverage is the in-column support below which candidate
// profiles are not considered; values a profile misses are encoded raw
// (the standard MDL treatment of outliers).
const pwheelMinCoverage = 0.9

// mdlMaxValues caps the values scored per candidate for tractability
// when profiling pooled schema-matching samples.
const mdlMaxValues = 500

// MDLPattern returns the minimum-description-length pattern profiling
// the values, with ok=false when no non-trivial pattern reaches the
// coverage floor.
func MDLPattern(values []string) (pattern.Pattern, bool) {
	if len(values) == 0 {
		return pattern.Pattern{}, false
	}
	if len(values) > mdlMaxValues {
		values = values[:mdlMaxValues]
	}
	enum := pattern.DefaultEnumOptions()
	enum.MaxTokens = 0 // profilers have no corpus-side τ constraint
	enum.MinSupport = pwheelMinCoverage
	res := pattern.Enumerate(values, enum)
	var best pattern.Candidate
	bestDL := math.Inf(1)
	for _, c := range res.Candidates {
		// Equal lengths break toward more matched values, then the smaller
		// key, so the pick does not depend on the candidates' order.
		dl := descriptionLength(c.Pattern, values)
		if dl < bestDL || dl == bestDL && (c.Matched > best.Matched || c.Matched == best.Matched && c.Key < best.Key) {
			bestDL, best = dl, c
		}
	}
	// Tokens of its own, not a share of the candidates' block.
	return pattern.Pattern{Toks: slices.Clone(best.Pattern.Toks)}, best.Key != ""
}

// Per-character entropy in bits for each token class.
var classBits = map[tokens.Class]float64{
	tokens.ClassDigit:  math.Log2(10),
	tokens.ClassLetter: math.Log2(52),
	tokens.ClassAlnum:  math.Log2(62),
	tokens.ClassSymbol: math.Log2(32),
	tokens.ClassSpace:  1,
	tokens.ClassAny:    8,
}

// descriptionLength is the classic two-part MDL cost: bits to state the
// pattern plus bits to encode each value given the pattern.
func descriptionLength(p pattern.Pattern, values []string) float64 {
	// Pattern cost: ~8 bits of structure per token, plus the literal
	// bytes of constants.
	cost := 0.0
	for _, t := range p.Toks {
		cost += 8
		if t.Kind == pattern.KindLiteral {
			cost += 8 * float64(len(t.Lit))
		}
	}
	// Data cost: constants are free; fixed-width classes pay per-char
	// entropy; variable-width tokens additionally pay a length code.
	// Values the pattern misses are encoded raw (8 bits/char plus an
	// escape marker), the usual MDL treatment of outliers.
	prog := pattern.Compile(p)
	for _, v := range values {
		if prog.MatchString(v) {
			cost += valueCost(p, v)
		} else {
			cost += 16 + 8*float64(len(v))
		}
	}
	return cost
}

func valueCost(p pattern.Pattern, v string) float64 {
	// Approximate per-token costs without a full parse: distribute the
	// value's characters over class tokens proportionally. For the
	// shape-uniform columns profilers target, run-aligned accounting
	// is exact; for others this is a consistent approximation.
	runs := tokens.Lex(v)
	cost := 0.0
	ri := 0
	for _, t := range p.Toks {
		switch t.Kind {
		case pattern.KindLiteral:
			// Free: the pattern pins it. Advance past the
			// corresponding runs heuristically.
			ri += len(tokens.Lex(t.Lit))
		case pattern.KindNum:
			if ri < len(runs) {
				cost += float64(len(runs[ri].Text))*classBits[tokens.ClassDigit] + 4
				ri++
			}
		default:
			if ri < len(runs) {
				w := len(runs[ri].Text)
				cost += float64(w) * classBits[t.Class]
				if t.Min != t.Max { // variable width: pay a length code
					cost += math.Log2(float64(w + 2))
				}
				ri++
			}
		}
	}
	return cost
}

// patternRule flags a batch when any value fails to match every pattern
// alternative — the natural way to use a profile as a validator.
type patternRule struct {
	progs []*pattern.Program
}

func newPatternRule(pats ...pattern.Pattern) patternRule {
	r := patternRule{progs: make([]*pattern.Program, len(pats))}
	for i, p := range pats {
		r.progs[i] = pattern.Compile(p)
	}
	return r
}

func (r patternRule) Flags(values []string) bool {
	for _, v := range values {
		ok := false
		for _, prog := range r.progs {
			if prog.MatchString(v) {
				ok = true
				break
			}
		}
		if !ok {
			return true
		}
	}
	return false
}
