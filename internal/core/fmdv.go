package core

import (
	"fmt"
	"math"
	"slices"

	"autovalidate/internal/corpus"
	"autovalidate/internal/index"
	"autovalidate/internal/pattern"
	"autovalidate/internal/tokens"
	"autovalidate/internal/validate"
)

// scored is a hypothesis pattern with its corpus evidence.
type scored struct {
	pat     pattern.Pattern
	key     string // pat.Key()
	fpr     float64
	cov     uint32
	matched int // query-column values matched (with multiplicity)
}

// Infer produces a validation rule for the query column using the chosen
// FMDV variant and the offline index. It returns ErrNoFeasible when the
// constraints admit no pattern.
func Infer(values []string, idx *index.Index, opt Options) (*validate.Rule, error) {
	if len(values) == 0 {
		return nil, ErrEmptyColumn
	}
	switch opt.Strategy {
	case FMDVV:
		return inferVertical(values, idx, opt, 0)
	case FMDVVH:
		return inferVertical(values, idx, opt, opt.Theta)
	case FMDVH:
		return inferFlat(values, idx, opt, opt.Theta)
	default:
		return inferFlat(values, idx, opt, 0)
	}
}

// inferFlat implements FMDV (theta = 0, Eq. 5-7) and FMDV-H (theta > 0,
// Eq. 12-16): hypotheses are enumerated with the matching support
// semantics and scored against the index.
func inferFlat(values []string, idx *index.Index, opt Options, theta float64) (*validate.Rule, error) {
	enum := opt.Enum
	enum.MaxTokens = opt.Tau
	enum.MinSupport = 1 - theta
	res := pattern.Enumerate(values, enum)
	if res.Total == 0 {
		return nil, ErrEmptyColumn
	}
	minMatched := int(math.Ceil((1 - theta) * float64(res.Total)))
	best, err := selectBest(res.Candidates, idx, opt, minMatched)
	if err != nil {
		return nil, err
	}
	return buildRule(opt, best.pat, best.fpr, res.Total-best.matched, res.Total, nil), nil
}

// selectBest picks the optimal feasible hypothesis: minimum FPR_T
// (or minimum coverage under the CMDV ablation objective), subject to
// FPR_T(h) ≤ r and Cov_T(h) ≥ m.
func selectBest(cands []pattern.Candidate, idx *index.Index, opt Options, minMatched int) (scored, error) {
	var best scored
	found := false
	hits := uint64(0)
	for _, c := range cands {
		if c.Matched < minMatched {
			continue
		}
		e, ok := idx.Lookup(c.Key)
		if !ok {
			continue
		}
		hits++
		fpr := e.FPR()
		if fpr > opt.R || int(e.Cov) < opt.M {
			continue
		}
		s := scored{pat: c.Pattern, key: c.Key, fpr: fpr, cov: e.Cov, matched: c.Matched}
		if !found || better(opt.Objective, &s, &best) {
			best, found = s, true
		}
	}
	candidatesEnumerated.Add(uint64(len(cands)))
	indexHits.Add(hits)
	if !found {
		return scored{}, ErrNoFeasible
	}
	// The winner outlives the enumeration: give it tokens of its own
	// rather than a share of the block every candidate was carved from.
	best.pat.Toks = slices.Clone(best.pat.Toks)
	return best, nil
}

// fprEpsilon is the resolution below which two estimated FPRs are
// considered tied: corpus impurity estimates carry sampling noise on this
// order, and exact comparison would let coverage dilution (a general
// pattern spreading the same dirt over more covered columns) win against
// the domain-true pattern.
const fprEpsilon = 2e-3

// better reports whether a should be preferred over b under the
// objective. FPR is primary (Eq. 5) at fprEpsilon resolution; ties break
// toward more query-column matches, then toward the *syntactically most
// specific* pattern — among equally safe hypotheses the tighter one
// catches more issues, serving the paper's secondary goal of detection
// recall — then lower coverage and the smaller key for determinism.
func better(obj Objective, a, b *scored) bool {
	if obj == MinCoverage {
		if a.cov != b.cov {
			return a.cov < b.cov
		}
		if a.fpr != b.fpr {
			return a.fpr < b.fpr
		}
	} else {
		if a.fpr < b.fpr-fprEpsilon {
			return true
		}
		if a.fpr > b.fpr+fprEpsilon {
			return false
		}
		// Specificity before query-match count: a general pattern that
		// "wins" extra matches only by swallowing non-conforming junk
		// (e.g. <alnum>+ matching "NULL") is the wrong domain pattern;
		// horizontal cuts exist to exclude that junk instead.
		if ga, gb := generality(a.pat), generality(b.pat); ga != gb {
			return ga < gb
		}
		if a.cov != b.cov {
			return a.cov < b.cov
		}
	}
	if a.matched != b.matched {
		return a.matched > b.matched
	}
	return a.key < b.key
}

// generality scores how far a pattern sits from the leaves of the
// Figure 4 hierarchy: constants are most specific (0), fixed-width
// classes next, unbounded classes and <alnum>/<all> progressively more
// general. Lower is more specific.
func generality(p pattern.Pattern) int {
	g := 0
	for _, t := range p.Toks {
		switch t.Kind {
		case pattern.KindLiteral:
			// 0: a constant.
		case pattern.KindNum:
			g += 3
		default:
			base := 0
			switch t.Class {
			case tokens.ClassDigit, tokens.ClassLetter:
				base = 1
			case tokens.ClassSymbol, tokens.ClassSpace:
				base = 1
			case tokens.ClassAlnum:
				base = 2
			default: // <all>
				base = 4
			}
			if t.Max == pattern.Unbounded {
				base += 2
			}
			g += base
		}
	}
	return g
}

func buildRule(opt Options, pat pattern.Pattern, fpr float64, nonConforming, total int, segments []pattern.Pattern) *validate.Rule {
	return &validate.Rule{
		Pattern:            pat,
		EstimatedFPR:       fpr,
		TrainNonConforming: nonConforming,
		TrainTotal:         total,
		Test:               opt.Test,
		Alpha:              opt.Alpha,
		Strategy:           opt.Strategy.String(),
		Segments:           segments,
	}
}

// InferNoIndex runs basic FMDV with FPR_T and Cov_T computed by scanning
// the corpus columns directly for every hypothesis — the "FMDV
// (no-index)" reference point of Figure 14 demonstrating why the offline
// index exists. It is deliberately unoptimized.
func InferNoIndex(values []string, cols []*corpus.Column, opt Options) (*validate.Rule, error) {
	if len(values) == 0 {
		return nil, ErrEmptyColumn
	}
	enum := opt.Enum
	enum.MaxTokens = opt.Tau
	res := pattern.HypothesisSpace(values, enum)
	if res.Total == 0 {
		return nil, ErrEmptyColumn
	}
	var best scored
	found := false
	for _, c := range res.Candidates {
		if c.Matched < res.Total {
			continue
		}
		var sumImp float64
		var cov uint32
		prog := pattern.Compile(c.Pattern)
		for _, col := range cols {
			misses, _ := pattern.CountMisses(prog, col.Values, nil, 0)
			if misses == len(col.Values) {
				continue
			}
			cov++
			sumImp += float64(misses) / float64(len(col.Values))
		}
		if cov == 0 {
			continue
		}
		fpr := sumImp / float64(cov)
		if fpr > opt.R || int(cov) < opt.M {
			continue
		}
		s := scored{pat: c.Pattern, key: c.Key, fpr: fpr, cov: cov, matched: c.Matched}
		if !found || better(opt.Objective, &s, &best) {
			best, found = s, true
		}
	}
	if !found {
		return nil, fmt.Errorf("%w (no-index scan over %d columns)", ErrNoFeasible, len(cols))
	}
	best.pat.Toks = slices.Clone(best.pat.Toks)
	return buildRule(opt, best.pat, best.fpr, 0, res.Total, nil), nil
}

// InferTag implements the dual formulation sketched in §2.3 for
// data-tagging (the Azure Purview "Auto-Tag" feature): find the most
// restrictive pattern — minimum corpus coverage — that still matches at
// least (1 - maxFNR) of the example values, subject to a minimum
// coverage floor so the tag generalizes beyond the examples.
func InferTag(values []string, idx *index.Index, opt Options, maxFNR float64) (*validate.Rule, error) {
	if len(values) == 0 {
		return nil, ErrEmptyColumn
	}
	enum := opt.Enum
	enum.MaxTokens = opt.Tau
	enum.MinSupport = 1 - maxFNR
	res := pattern.Enumerate(values, enum)
	if res.Total == 0 {
		return nil, ErrEmptyColumn
	}
	minMatched := int(math.Ceil((1 - maxFNR) * float64(res.Total)))
	tagOpt := opt
	tagOpt.Objective = MinCoverage
	best, err := selectBest(res.Candidates, idx, tagOpt, minMatched)
	if err != nil {
		return nil, err
	}
	return buildRule(tagOpt, best.pat, best.fpr, res.Total-best.matched, res.Total, nil), nil
}
