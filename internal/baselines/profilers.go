package baselines

import (
	"autovalidate/internal/pattern"
	"autovalidate/internal/tokens"
)

// SSIS mimics SQL Server Integration Services' data-profiling regexes
// (§5.2): one character-class pattern per column with observed
// min/max widths per position, derived from the dominant token shape.
type SSIS struct{}

// Name implements Method.
func (SSIS) Name() string { return "SSIS" }

// Train implements Method.
func (SSIS) Train(values []string) (Rule, error) {
	shapes := groupByShape(values)
	if len(shapes) == 0 {
		return nil, ErrNoRule
	}
	// SSIS profiles the dominant shape only.
	best := dominantShape(shapes)
	p, ok := rangePattern(shapes[best], false)
	if !ok {
		return nil, ErrNoRule
	}
	return newPatternRule(p), nil
}

// XSystem mimics the branch-and-merge profiler of Ilyas et al. (§5.2):
// each distinct token shape becomes a branch, and each branch profiles
// its positions with class tokens and observed width ranges. A value
// passes if any branch matches.
type XSystem struct{}

// Name implements Method.
func (XSystem) Name() string { return "XSystem" }

// Train implements Method.
func (XSystem) Train(values []string) (Rule, error) {
	shapes := groupByShape(values)
	if len(shapes) == 0 {
		return nil, ErrNoRule
	}
	var pats []pattern.Pattern
	for _, vs := range shapes {
		if p, ok := rangePattern(vs, false); ok {
			pats = append(pats, p)
		}
	}
	if len(pats) == 0 {
		return nil, ErrNoRule
	}
	return newPatternRule(pats...), nil
}

// FlashProfile mimics the cluster-then-profile synthesis of Padhi et al.
// (§5.2): values cluster by syntactic similarity (token shape here), and
// each cluster gets its most specific description — constants where the
// cluster is constant, fixed widths where widths agree.
type FlashProfile struct{}

// Name implements Method.
func (FlashProfile) Name() string { return "FlashProfile" }

// Train implements Method.
func (FlashProfile) Train(values []string) (Rule, error) {
	shapes := groupByShape(values)
	if len(shapes) == 0 {
		return nil, ErrNoRule
	}
	var pats []pattern.Pattern
	for _, vs := range shapes {
		if p, ok := rangePattern(vs, true); ok {
			pats = append(pats, p)
		}
	}
	if len(pats) == 0 {
		return nil, ErrNoRule
	}
	return newPatternRule(pats...), nil
}

func groupByShape(values []string) map[string][]string {
	out := map[string][]string{}
	for _, v := range values {
		if v == "" {
			continue
		}
		out[tokens.ClassShape(tokens.Lex(v))] = append(out[tokens.ClassShape(tokens.Lex(v))], v)
	}
	return out
}

func dominantShape(shapes map[string][]string) string {
	best, bestN := "", -1
	for s, vs := range shapes {
		if len(vs) > bestN || (len(vs) == bestN && s < best) {
			best, bestN = s, len(vs)
		}
	}
	return best
}

// rangePattern profiles one shape group: per aligned position, a class
// token spanning the observed width range. With consts=true, positions
// whose text never varies become constants and uniform widths become
// fixed (FlashProfile's most-specific profile); otherwise only symbol
// positions keep identity (SSIS/XSystem style).
func rangePattern(values []string, consts bool) (pattern.Pattern, bool) {
	if len(values) == 0 {
		return pattern.Pattern{}, false
	}
	first := tokens.Lex(values[0])
	npos := len(first)
	type posStat struct {
		class    tokens.Class
		min, max int
		text     string
		uniform  bool
	}
	stats := make([]posStat, npos)
	for i, r := range first {
		stats[i] = posStat{class: r.Class, min: len(r.Text), max: len(r.Text), text: r.Text, uniform: true}
	}
	for _, v := range values[1:] {
		runs := tokens.Lex(v)
		if len(runs) != npos {
			return pattern.Pattern{}, false // same shape implies same arity
		}
		for i, r := range runs {
			s := &stats[i]
			if w := len(r.Text); w < s.min {
				s.min = w
			} else if w > s.max {
				s.max = w
			}
			if r.Text != s.text {
				s.uniform = false
			}
		}
	}
	toks := make([]pattern.Tok, npos)
	for i, s := range stats {
		switch {
		case s.class == tokens.ClassSymbol, s.class == tokens.ClassSpace:
			if s.uniform {
				toks[i] = pattern.Lit(s.text)
			} else {
				toks[i] = pattern.ClassRange(s.class, s.min, s.max)
			}
		case consts && s.uniform:
			toks[i] = pattern.Lit(s.text)
		case consts && s.min == s.max:
			toks[i] = pattern.ClassN(s.class, s.min)
		default:
			toks[i] = pattern.ClassRange(s.class, s.min, s.max)
		}
	}
	return pattern.Pattern{Toks: toks}, true
}
