package core

import (
	"fmt"
	"math"
	"sort"

	"autovalidate/internal/corpus"
	"autovalidate/internal/index"
	"autovalidate/internal/msa"
	"autovalidate/internal/pattern"
	"autovalidate/internal/tokens"
	"autovalidate/internal/validate"
)

// The inference path as it was before each segment was solved once and
// each candidate's key rendered once, kept as the slow obvious reference
// Infer is compared against: every DP leaf enumerates its strings from
// scratch, the two tokenizations share nothing, and every candidate's
// key is re-rendered for its index lookup.

// oracleInfer is Infer over the reference path.
func oracleInfer(values []string, idx *index.Index, opt Options) (*validate.Rule, error) {
	if len(values) == 0 {
		return nil, ErrEmptyColumn
	}
	switch opt.Strategy {
	case FMDVV:
		return oracleInferVertical(values, idx, opt, 0)
	case FMDVVH:
		return oracleInferVertical(values, idx, opt, opt.Theta)
	case FMDVH:
		return oracleInferFlat(values, idx, opt, opt.Theta)
	default:
		return oracleInferFlat(values, idx, opt, 0)
	}
}

func oracleInferVertical(values []string, idx *index.Index, opt Options, theta float64) (*validate.Rule, error) {
	// Solve under both tokenizations: the fine lexer preserves the most
	// structure, but columns like GUIDs have wildly diverse fine shapes
	// and a single coarse shape under alnum merging. Keep whichever
	// solution has the lower aggregated FPR (more specific on ties).
	fine, errF := oracleInferVerticalTok(values, idx, opt, theta, false)
	merged, errM := oracleInferVerticalTok(values, idx, opt, theta, true)
	switch {
	case errF != nil && errM != nil:
		return nil, errF
	case errF != nil:
		return merged, nil
	case errM != nil:
		return fine, nil
	case merged.EstimatedFPR < fine.EstimatedFPR-fprEpsilon:
		return merged, nil
	case fine.EstimatedFPR < merged.EstimatedFPR-fprEpsilon:
		return fine, nil
	case generality(merged.Pattern) < generality(fine.Pattern):
		return merged, nil
	default:
		return fine, nil
	}
}

func oracleInferVerticalTok(values []string, idx *index.Index, opt Options, theta float64, merge bool) (*validate.Rule, error) {
	uniq, weights, total := oracleDedupeValues(values)
	if total == 0 {
		return nil, ErrEmptyColumn
	}
	minKept := total - int(theta*float64(total))

	// Group unique values by token shape.
	type group struct {
		shape   string
		symbols []string
		members []int
		weight  int
		bad     bool // empty or beyond the alignment cap: must be cut
	}
	byShape := map[string]*group{}
	runsOf := make([][]tokens.Run, len(uniq))
	for i, v := range uniq {
		runs := tokens.Lex(v)
		if merge {
			runs = tokens.MergeAlnum(nil, v, runs)
		}
		runsOf[i] = runs
		key := tokens.Shape(runs)
		g, ok := byShape[key]
		if !ok {
			g = &group{shape: key, symbols: tokens.Symbols(runs)}
			g.bad = len(runs) == 0 || (opt.MaxAlignCols > 0 && len(runs) > opt.MaxAlignCols)
			byShape[key] = g
		}
		g.members = append(g.members, i)
		g.weight += weights[i]
	}
	groups := make([]*group, 0, len(byShape))
	for _, g := range byShape {
		groups = append(groups, g)
	}
	// Mandatory cuts first, then smallest-first optional cuts.
	sort.Slice(groups, func(i, j int) bool {
		if groups[i].bad != groups[j].bad {
			return groups[i].bad
		}
		if groups[i].weight != groups[j].weight {
			return groups[i].weight < groups[j].weight
		}
		return groups[i].shape < groups[j].shape
	})
	kept := total
	var keptGroups []*group
	for gi, g := range groups {
		last := gi == len(groups)-1
		if !last && kept-g.weight >= minKept && (g.bad || theta > 0) {
			kept -= g.weight
			continue
		}
		if g.bad {
			return nil, fmt.Errorf("%w (non-conforming values exceed tolerance θ=%.2f)", ErrNoFeasible, theta)
		}
		keptGroups = append(keptGroups, g)
	}
	if len(keptGroups) == 0 {
		return nil, ErrNoFeasible
	}

	// Align the kept shapes (trivial when only one remains, the common
	// machine-generated case of the paper's Example 7).
	seqs := make([][]string, len(keptGroups))
	for i, g := range keptGroups {
		seqs[i] = g.symbols
	}
	align := msa.Align(seqs)
	ncols := align.Cols
	if ncols == 0 {
		return nil, ErrNoFeasible
	}
	if opt.MaxAlignCols > 0 && ncols > opt.MaxAlignCols {
		return nil, fmt.Errorf("%w (aligned width %d exceeds cap %d)", ErrNoFeasible, ncols, opt.MaxAlignCols)
	}

	// colText[i][c] is value i's text at aligned column c ("" on gaps).
	var keptIdx []int
	colText := map[int][]string{}
	for gi, g := range keptGroups {
		row := align.Rows[gi]
		for _, i := range g.members {
			texts := make([]string, ncols)
			for c := 0; c < ncols; c++ {
				if ri := row[c]; ri != msa.Gap {
					texts[c] = runsOf[i][ri].Text
				}
			}
			colText[i] = texts
			keptIdx = append(keptIdx, i)
		}
	}

	dp := oracleNewSegmentDP(idx, opt, keptIdx, weights, colText, ncols)
	result := dp.solve()
	if !result.ok {
		return nil, fmt.Errorf("%w (no feasible segmentation)", ErrNoFeasible)
	}
	if result.agg > opt.R {
		return nil, fmt.Errorf("%w (best segmentation FPR %.4f exceeds r=%.4f)", ErrNoFeasible, result.agg, opt.R)
	}
	full := pattern.Concat(result.pats...)
	rule := buildRule(opt, full, result.agg, total-kept, total, result.pats)
	return rule, nil
}

func oracleDedupeValues(values []string) (uniq []string, weights []int, total int) {
	at := make(map[string]int, len(values))
	for _, v := range values {
		if i, ok := at[v]; ok {
			weights[i]++
		} else {
			at[v] = len(uniq)
			uniq = append(uniq, v)
			weights = append(weights, 1)
		}
		total++
	}
	return uniq, weights, total
}

// oracleSegmentDP runs the bottom-up dynamic program of Eq. 11 over aligned
// token columns.
type oracleSegmentDP struct {
	idx     *index.Index
	opt     Options
	keptIdx []int
	weights []int
	colText map[int][]string
	ncols   int
}

func oracleNewSegmentDP(idx *index.Index, opt Options, keptIdx []int, weights []int, colText map[int][]string, ncols int) *oracleSegmentDP {
	return &oracleSegmentDP{idx: idx, opt: opt, keptIdx: keptIdx, weights: weights, colText: colText, ncols: ncols}
}

type oracleSegResult struct {
	ok   bool
	agg  float64
	pats []pattern.Pattern
}

func (dp *oracleSegmentDP) solve() oracleSegResult {
	n := dp.ncols
	best := make([][]oracleSegResult, n)
	for s := range best {
		best[s] = make([]oracleSegResult, n)
	}
	for width := 1; width <= n; width++ {
		for s := 0; s+width-1 < n; s++ {
			e := s + width - 1
			cur := dp.leaf(s, e)
			for t := s; t < e; t++ {
				l, r := best[s][t], best[t+1][e]
				if !l.ok || !r.ok {
					continue
				}
				agg := l.agg + r.agg
				if dp.opt.Aggregate == MaxFPR {
					agg = l.agg
					if r.agg > agg {
						agg = r.agg
					}
				}
				if !cur.ok || agg < cur.agg {
					pats := make([]pattern.Pattern, 0, len(l.pats)+len(r.pats))
					pats = append(pats, l.pats...)
					pats = append(pats, r.pats...)
					cur = oracleSegResult{ok: true, agg: agg, pats: pats}
				}
			}
			best[s][e] = cur
		}
	}
	return best[0][n-1]
}

// leaf computes min_{h ∈ P(C[s,e])} FPR_T(h): the no-split option of
// Eq. 11, by enumerating the segment's hypothesis space and scoring it
// against the index.
func (dp *oracleSegmentDP) leaf(s, e int) oracleSegResult {
	if e-s+1 > dp.opt.Tau {
		return oracleSegResult{} // longer than any indexed pattern (§2.4)
	}
	// Assemble the sub-column (with multiplicity).
	var sub []string
	var emptyW, totalW int
	for _, i := range dp.keptIdx {
		var text string
		for c := s; c <= e; c++ {
			text += dp.colText[i][c]
		}
		w := dp.weights[i]
		totalW += w
		if text == "" {
			emptyW += w
			continue
		}
		for k := 0; k < w; k++ {
			sub = append(sub, text)
		}
	}
	if len(sub) == 0 {
		return oracleSegResult{}
	}

	// Constant separator fast path: a segment of pure punctuation or
	// whitespace that is byte-identical in every kept value is a
	// zero-risk glue token. The corpus index has no standalone column
	// for "[" or "|", so we admit it directly — this is the laptop-
	// scale stand-in for the paper's lake, where every narrow slice of
	// machine-generated data occurs as some column. Separators gapped
	// in part of the alignment (an optional " PM" suffix's space)
	// become optional literals.
	if allEqual(sub) && isSeparator(sub[0]) {
		p := pattern.New(pattern.Lit(sub[0]))
		if emptyW > 0 {
			p = pattern.Optional(p)
		}
		return oracleSegResult{ok: true, agg: 0, pats: []pattern.Pattern{p}}
	}

	enum := dp.opt.Enum
	enum.MaxTokens = dp.opt.Tau
	enum.MinSupport = 1.0
	res := pattern.Enumerate(sub, enum)
	bestC, err := oracleSelectBest(res.Candidates, dp.idx, dp.opt, res.Total)
	if err != nil {
		return oracleSegResult{}
	}
	pat := bestC.pat
	if emptyW > 0 {
		// Some aligned rows are gapped here: make the segment optional.
		pat = pattern.Optional(pat)
	}
	return oracleSegResult{ok: true, agg: bestC.fpr, pats: []pattern.Pattern{pat}}
}

func allEqual(xs []string) bool {
	for _, x := range xs[1:] {
		if x != xs[0] {
			return false
		}
	}
	return true
}

// oracleInferFlat implements FMDV (theta = 0, Eq. 5-7) and FMDV-H (theta > 0,
// Eq. 12-16): hypotheses are enumerated with the matching support
// semantics and scored against the index.
func oracleInferFlat(values []string, idx *index.Index, opt Options, theta float64) (*validate.Rule, error) {
	enum := opt.Enum
	enum.MaxTokens = opt.Tau
	enum.MinSupport = 1 - theta
	res := pattern.Enumerate(values, enum)
	if res.Total == 0 {
		return nil, ErrEmptyColumn
	}
	minMatched := int(math.Ceil((1 - theta) * float64(res.Total)))
	best, err := oracleSelectBest(res.Candidates, idx, opt, minMatched)
	if err != nil {
		return nil, err
	}
	return buildRule(opt, best.pat, best.fpr, res.Total-best.matched, res.Total, nil), nil
}

// oracleSelectBest picks the optimal feasible hypothesis: minimum FPR_T
// (or minimum coverage under the CMDV ablation objective), subject to
// FPR_T(h) ≤ r and Cov_T(h) ≥ m.
func oracleSelectBest(cands []pattern.Candidate, idx *index.Index, opt Options, minMatched int) (*scored, error) {
	var best *scored
	for _, c := range cands {
		if c.Matched < minMatched {
			continue
		}
		e, ok := idx.LookupPattern(c.Pattern)
		if !ok {
			continue
		}
		fpr := e.FPR()
		if fpr > opt.R || int(e.Cov) < opt.M {
			continue
		}
		s := &scored{pat: c.Pattern, key: c.Pattern.Key(), fpr: fpr, cov: e.Cov, matched: c.Matched}
		if best == nil || better(opt.Objective, s, best) {
			best = s
		}
	}
	if best == nil {
		return nil, ErrNoFeasible
	}
	return best, nil
}

// oracleInferNoIndex is InferNoIndex as it was before it enumerated the
// column's position summaries: H(C) collected by Enumerate at full
// support, every candidate scored by a scan over the corpus columns and
// reduced with better in Enumerate's order.
func oracleInferNoIndex(values []string, cols []*corpus.Column, opt Options) (*validate.Rule, error) {
	if len(values) == 0 {
		return nil, ErrEmptyColumn
	}
	enum := opt.Enum
	enum.MaxTokens = opt.Tau
	enum.MinSupport = 1
	res := pattern.Enumerate(values, enum)
	var best *scored
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
		s := &scored{pat: c.Pattern, key: c.Key, fpr: fpr, cov: cov, matched: c.Matched}
		if best == nil || better(opt.Objective, s, best) {
			best = s
		}
	}
	if best == nil {
		return nil, fmt.Errorf("%w (no-index scan over %d columns)", ErrNoFeasible, len(cols))
	}
	return buildRule(opt, best.pat, best.fpr, 0, res.Total, nil), nil
}

// better is the pairwise comparison the oracles reduce with, in the order
// their hypotheses arrive: a is preferred over b when its FPR is lower by
// more than fprEpsilon; within fprEpsilon ties break toward lower
// generality, then lower coverage, then more query-column matches, then
// the smaller key. Under MinCoverage the order is coverage, FPR, matches,
// key. It is not transitive — a can beat b and b beat c within the tie
// while c beats a on FPR — so a reduction with it can depend on the
// order; choose's band rule does not, and agrees with it wherever no
// such cycle arises.
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
