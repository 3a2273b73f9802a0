package core

import (
	"fmt"

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
// constraints admit no pattern. The column's leaves are solved for it
// alone; Memo.Infer shares them across columns.
func Infer(values []string, idx *index.Index, opt Options) (*validate.Rule, error) {
	return infer(values, idx, opt, nil)
}

// infer answers leaves from memo, bound to idx and opt; a nil memo stands
// for a fresh one.
func infer(values []string, idx *index.Index, opt Options, memo *Memo) (*validate.Rule, error) {
	if len(values) == 0 {
		return nil, ErrEmptyColumn
	}
	switch opt.Strategy {
	case FMDVV, FMDVVH:
		if memo == nil {
			memo = NewMemo(idx, opt) // the column's own
		}
		theta := opt.Theta
		if opt.Strategy == FMDVV {
			theta = 0
		}
		return inferVertical(values, memo, theta)
	case FMDVH:
		return inferFlat(values, idx, opt, opt.Theta, nil)
	default:
		return inferFlat(values, idx, opt, 0, memo)
	}
}

// inferFlat implements FMDV (theta = 0, Eq. 5-7) and FMDV-H (theta > 0,
// Eq. 12-16): hypotheses are enumerated with the matching support
// semantics and scored against the index. At theta = 0 the column is one
// leaf: its hypothesis space H(C) is enumerated from its position
// summaries and scored as it is visited, or answered by memo (nil: no
// memo).
func inferFlat(values []string, idx *index.Index, opt Options, theta float64, memo *Memo) (*validate.Rule, error) {
	if len(values) == 0 {
		return nil, ErrEmptyColumn
	}
	if theta == 0 {
		lf, total := columnLeaf(values, idx, opt)
		best, _ := memo.leaf(lf)
		lf.release()
		if !best.ok {
			return nil, ErrNoFeasible
		}
		return buildRule(opt, best.pat, best.fpr, 0, total, nil), nil
	}
	best, total, err := selectBest(values, idx, opt, theta)
	if err != nil {
		return nil, err
	}
	return buildRule(opt, best.pat, best.fpr, total-best.matched, total, nil), nil
}

// columnLeaf folds the whole column into a leaf's summaries: its first
// Enum.MaxValues distinct values, the ones Enumerate keeps, whose total
// weight it returns. Each value is lexed once, into one run buffer, and
// the scan stops lexing once both tokenizations are ruled out.
func columnLeaf(values []string, idx *index.Index, opt Options) (lf *leafScorer, total int) {
	uniq, weights := pattern.Dedupe(values, opt.Enum.MaxValues)
	for _, w := range weights {
		total += w
	}
	lf = &leafScorer{}
	lf.init(idx, opt)
	lf.fine.reset(opt.Tau, true)
	lf.merged.reset(opt.Tau, opt.Enum.IncludeAlnumPass)
	fine, merged := make([]tokens.Run, 0, 16), make([]tokens.Run, 0, 16)
	for _, v := range uniq {
		if !lf.fine.ok && !lf.merged.ok {
			break
		}
		fine = tokens.AppendLex(fine[:0], v)
		lf.fine.foldRuns(fine)
		if lf.merged.ok {
			merged = tokens.MergeAlnum(merged[:0], v, fine)
			lf.merged.foldRuns(merged)
		}
	}
	return lf, total
}

// selectBest enumerates the hypotheses that match at least 1-θ of the
// values (with multiplicity) and picks the optimal feasible one: the one
// choose picks from those whose FPR_T is at most r and Cov_T at least m.
// Each candidate is looked up as the enumerator visits it, by its key's
// bytes, and only the feasible hits are kept, in pooled scratch, each
// with a string of its key; the winner is given tokens of its own. It
// also returns the values considered, with multiplicity.
func selectBest(values []string, idx *index.Index, opt Options, theta float64) (scored, int, error) {
	enum := opt.Enum
	enum.MaxTokens = opt.Tau
	enum.MinSupport = 1 - theta
	hs := hitScratches.Get().(*hitScratch)
	defer hs.release()
	var visited, hits uint64
	total, _ := pattern.Visit(values, enum, func(key []byte, toks []pattern.Tok, matched, _ int) {
		visited++
		e, ok := idx.LookupBytes(key)
		if !ok {
			return
		}
		hits++
		if fpr := e.FPR(); feasible(opt, fpr, e.Cov) {
			hs.keep(opt, scored{key: string(key), fpr: fpr, cov: e.Cov, matched: matched}, toks)
		}
	})
	candidatesEnumerated.Add(visited)
	indexHits.Add(hits)
	best, ok := hs.pick(opt.Objective)
	if !ok {
		return scored{}, total, ErrNoFeasible
	}
	return best, total, nil
}

// fprEpsilon is the resolution below which two estimated FPRs are
// considered tied: corpus impurity estimates carry sampling noise on this
// order, and exact comparison would let coverage dilution (a general
// pattern spreading the same dirt over more covered columns) win against
// the domain-true pattern.
const fprEpsilon = 2e-3

// choose returns the index of the hit to pick from hits (at least one)
// under the objective. Under MinFPR (Eq. 5) every hit whose FPR is within
// fprEpsilon of the least one is equally safe, and of those it picks the
// syntactically most specific pattern (least generality) — the tighter
// one catches more issues, serving the paper's secondary goal of
// detection recall — then lower coverage, then more query-column matches,
// then the smaller key. Under MinCoverage it picks the least coverage,
// then FPR, matches and key. Both are orders over the set, so the
// pick does not depend on the order of hits; of hits equal in all of
// these (no keys), the first wins.
func choose(hits []scored, obj Objective) int {
	least := hits[0].fpr
	for _, h := range hits[1:] {
		least = min(least, h.fpr)
	}
	best := -1
	for i := range hits {
		h := &hits[i]
		if obj != MinCoverage && h.fpr > least+fprEpsilon {
			continue
		}
		if best < 0 || ahead(obj, h, &hits[best]) {
			best = i
		}
	}
	return best
}

// ahead orders hits that choose weighs against each other.
func ahead(obj Objective, a, b *scored) bool {
	if obj == MinCoverage {
		if a.cov != b.cov {
			return a.cov < b.cov
		}
		if a.fpr != b.fpr {
			return a.fpr < b.fpr
		}
	} else {
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

// buildRule makes the rule of pat, which the DP concatenated from
// segments. pat's and the segments' tokens may be a memo's, which other
// rules share, so the rule gets its own copy of them, in one slab.
func buildRule(opt Options, pat pattern.Pattern, fpr float64, nonConforming, total int, segments []pattern.Pattern) *validate.Rule {
	n := len(pat.Toks)
	for _, seg := range segments {
		n += len(seg.Toks)
	}
	slab := make([]pattern.Tok, 0, n)
	own := func(p pattern.Pattern) pattern.Pattern {
		lo := len(slab)
		slab = append(slab, p.Toks...)
		return pattern.Pattern{Toks: slab[lo:len(slab):len(slab)]}
	}
	pat = own(pat)
	for i, seg := range segments {
		segments[i] = own(seg)
	}
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
// index exists. It is deliberately unoptimized: it enumerates H(C) as
// flat FMDV does, but each candidate is scored by a scan, not a lookup.
func InferNoIndex(values []string, cols []*corpus.Column, opt Options) (*validate.Rule, error) {
	if len(values) == 0 {
		return nil, ErrEmptyColumn
	}
	lf, total := columnLeaf(values, nil, opt)
	lf.visit = func(key string, toks []pattern.Tok) {
		var sumImp float64
		var cov uint32
		prog := pattern.Compile(pattern.Pattern{Toks: toks})
		for _, col := range cols {
			misses, _ := pattern.CountMisses(prog, col.Values, nil, 0)
			if misses == len(col.Values) {
				continue
			}
			cov++
			sumImp += float64(misses) / float64(len(col.Values))
		}
		if cov > 0 {
			lf.keep(opt, scored{key: key, fpr: sumImp / float64(cov), cov: cov}, toks)
		}
	}
	best := lf.best()
	lf.release()
	if !best.ok {
		return nil, fmt.Errorf("%w (no-index scan over %d columns)", ErrNoFeasible, len(cols))
	}
	return buildRule(opt, best.pat, best.fpr, 0, total, nil), nil
}

// InferTag implements the dual formulation sketched in §2.3 for
// data-tagging (the Azure Purview "Auto-Tag" feature): find the most
// restrictive pattern — minimum corpus coverage — that still matches at
// least (1 - maxFNR) of the example values, subject to a minimum
// coverage floor so the tag generalizes beyond the examples.
func InferTag(values []string, idx *index.Index, opt Options, maxFNR float64) (*validate.Rule, error) {
	opt.Objective = MinCoverage
	return inferFlat(values, idx, opt, maxFNR, nil)
}
