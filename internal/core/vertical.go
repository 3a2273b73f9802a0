package core

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"

	"autovalidate/internal/index"
	"autovalidate/internal/msa"
	"autovalidate/internal/pattern"
	"autovalidate/internal/tokens"
	"autovalidate/internal/validate"
)

// inferVertical implements FMDV-V (theta = 0) and FMDV-VH (theta > 0):
// values are tokenized, multi-sequence aligned, and split into an
// m-segmentation by the dynamic program of Eq. 11; each segment's pattern
// is selected by FMDV against the index, and the per-segment FPRs are
// aggregated (sum by default, Eq. 8) under the overall target r.
//
// The horizontal step follows the paper's greedy (§4): whole token-shape
// groups are discarded smallest-first while the kept fraction stays at
// least 1-θ, which removes ad-hoc non-conforming values (they rarely
// share a shape with conforming ones) before alignment.
func inferVertical(values []string, idx *index.Index, opt Options, theta float64) (*validate.Rule, error) {
	// Solve under both tokenizations: the fine lexer preserves the most
	// structure, but columns like GUIDs have wildly diverse fine shapes
	// and a single coarse shape under alnum merging. Keep whichever
	// solution has the lower aggregated FPR (more specific on ties). The
	// column is lexed once for both, and a segment both alignments cut
	// out (every segment, when no value has adjacent letter and digit
	// runs) is solved once.
	dp := newSegmentDP(idx, opt, values)
	fine, errF := dp.infer(theta, false)
	merged, errM := dp.infer(theta, true)
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

// lexedColumn is a query column de-duplicated and lexed once: distinct
// value uniq[i] occurs weights[i] times and lexes to fine[i], or to
// merged[i] with adjacent letter and digit runs merged. off and first
// locate a run span of either tokenization in the value, so a segment of
// the alignment is a substring and a sub-slice, never a new string.
type lexedColumn struct {
	uniq    []string
	weights []int
	total   int
	fine    [][]tokens.Run
	merged  [][]tokens.Run
	off     [][]int // off[i][k]: byte offset of fine[i][k] in uniq[i]; off[i][len(fine[i])] = len(uniq[i])
	first   [][]int // first[i][j]: index in fine[i] of merged[i][j]'s first run; first[i][len(merged[i])] = len(fine[i])
}

func lexColumn(values []string) *lexedColumn {
	uniq, weights := pattern.Dedupe(values, 0)
	n := len(uniq)
	col := &lexedColumn{
		uniq: uniq, weights: weights, total: len(values),
		fine: make([][]tokens.Run, n), merged: make([][]tokens.Run, n),
		off: make([][]int, n), first: make([][]int, n),
	}
	for i, v := range uniq {
		fine := tokens.Lex(v)
		merged := tokens.MergeAlnum(make([]tokens.Run, 0, len(fine)), v, fine)
		ints := make([]int, len(fine)+len(merged)+2)
		off, first := ints[:len(fine)+1], ints[len(fine)+1:]
		k := 0
		for j, m := range merged {
			first[j] = k
			for end := off[k] + len(m.Text); off[k] < end; k++ {
				off[k+1] = off[k] + len(fine[k].Text)
			}
		}
		first[len(merged)] = len(fine)
		col.fine[i], col.merged[i], col.off[i], col.first[i] = fine, merged, off, first
	}
	return col
}

// infer solves the column under one tokenization (merge: with adjacent
// letter and digit runs merged).
func (dp *segmentDP) infer(theta float64, merge bool) (*validate.Rule, error) {
	opt, weights, total := dp.opt, dp.col.weights, dp.col.total
	runsOf := dp.col.fine
	if merge {
		runsOf = dp.col.merged
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
	for i, runs := range runsOf {
		key := tokens.Shape(runs)
		g, ok := byShape[key]
		if !ok {
			g = &group{shape: key, symbols: shapeSymbols(runs)}
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

	dp.merge, dp.ncols, dp.rows = merge, ncols, dp.rows[:0]
	for gi, g := range keptGroups {
		dp.rows = append(dp.rows, alignedRow{cols: align.Rows[gi], members: g.members})
	}
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

// shapeSymbols encodes runs as MSA symbols: classes compare by kind, and
// symbol runs keep their identity so ":" aligns with ":" not "/".
func shapeSymbols(runs []tokens.Run) []string {
	out := make([]string, len(runs))
	for i, r := range runs {
		switch r.Class {
		case tokens.ClassDigit:
			out[i] = "d"
		case tokens.ClassLetter:
			out[i] = "l"
		case tokens.ClassAlnum:
			out[i] = "a"
		case tokens.ClassSpace:
			out[i] = "_"
		default:
			out[i] = "s" + r.Text
		}
	}
	return out
}

// segmentDP runs the bottom-up dynamic program of Eq. 11 over aligned
// token columns, for one query column under each tokenization in turn.
type segmentDP struct {
	idx  *index.Index
	opt  Options
	col  *lexedColumn
	memo leafMemo

	// The alignment being solved, set by infer.
	merge bool // rows index col.merged, not col.fine
	ncols int
	rows  []alignedRow

	// Scratch of leaf, reused from segment to segment: the segment's
	// spans and the memo key spelled from them, and its distinct texts
	// with their slots, weights and runs (the merged runs of a fine-pass
	// segment carved from slab).
	spans   []span
	key     []byte
	slot    map[string]int
	texts   []string
	weights []int
	fine    [][]tokens.Run
	merged  [][]tokens.Run
	slab    []tokens.Run

	// The leaf's scorer, bound once, and what it was handed for the
	// segment being solved: how many candidates, how many of them the
	// index knew, and the feasible ones, their tokens carved from
	// hitToks.
	visit    func(key string, toks []pattern.Tok)
	visited  uint64
	hits     uint64
	feasible []scored
	hitToks  []pattern.Tok
}

// span is one non-gapped member's text in a segment: runs [flo, fhi) of
// col.fine[i], and under the merged tokenization runs [mlo, mhi) of
// col.merged[i].
type span struct {
	i, flo, fhi, mlo, mhi int
}

func newSegmentDP(idx *index.Index, opt Options, values []string) *segmentDP {
	dp := &segmentDP{idx: idx, opt: opt, col: lexColumn(values), memo: leafMemo{}, slot: map[string]int{}}
	dp.visit = dp.score
	return dp
}

// alignedRow is one kept shape group: cols[c] is the run its members
// contribute to aligned column c, or msa.Gap.
type alignedRow struct {
	cols    []int
	members []int
}

// leafMemo holds every segment solved for one query column, under either
// tokenization, keyed by the segment's spans in row order. A span fixes
// its text and weight, so one key is one (text, weight) sequence: the
// same sub-column, which has the same best pattern.
type leafMemo map[string]leafResult

// leafResult is the best unsplit pattern of a segment's values, before
// the segment's gaps are accounted for.
type leafResult struct {
	ok  bool
	fpr float64
	pat pattern.Pattern
}

type segResult struct {
	ok   bool
	agg  float64
	pats []pattern.Pattern
}

func (dp *segmentDP) solve() segResult {
	n := dp.ncols
	best := make([][]segResult, n)
	for s := range best {
		best[s] = make([]segResult, n)
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
					cur = segResult{ok: true, agg: agg, pats: pats}
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
func (dp *segmentDP) leaf(s, e int) segResult {
	if e-s+1 > dp.opt.Tau {
		return segResult{} // longer than any indexed pattern (§2.4)
	}
	emptyW, uniform := dp.gather(s, e)
	if len(dp.spans) == 0 {
		return segResult{}
	}

	// Constant separator fast path: a segment of pure punctuation or
	// whitespace that is byte-identical in every kept value is a
	// zero-risk glue token. The corpus index has no standalone column
	// for "[" or "|", so we admit it directly — this is the laptop-
	// scale stand-in for the paper's lake, where every narrow slice of
	// machine-generated data occurs as some column. Separators gapped
	// in part of the alignment (an optional " PM" suffix's space)
	// become optional literals.
	if first := dp.text(dp.spans[0]); uniform && isSeparator(first) {
		p := pattern.New(pattern.Lit(first))
		if emptyW > 0 {
			p = pattern.Optional(p)
		}
		return segResult{ok: true, agg: 0, pats: []pattern.Pattern{p}}
	}

	res, seen := dp.memo[string(dp.key)]
	if seen {
		segmentsMemoized.Add(1)
	} else {
		segmentsSolved.Add(1)
		if dp.dedupe() {
			res = dp.best()
		}
		dp.memo[string(dp.key)] = res
	}
	if !res.ok {
		return segResult{}
	}
	pat := res.pat
	if emptyW > 0 {
		// Some aligned rows are gapped here: make the segment optional.
		pat = pattern.Optional(pat)
	}
	return segResult{ok: true, agg: res.fpr, pats: []pattern.Pattern{pat}}
}

// best enumerates the segment dedupe has filled the scratch with, scoring
// each candidate as it is visited, and returns the one selectBest would
// pick: the best under the objective whose FPR_T is at most r and Cov_T
// at least m. Only the winner's tokens are copied out.
func (dp *segmentDP) best() leafResult {
	dp.visited, dp.hits, dp.feasible, dp.hitToks = 0, 0, dp.feasible[:0], dp.hitToks[:0]
	pattern.EnumerateLexed(dp.weights, dp.fine, dp.merged, dp.leafEnum(), dp.visit)
	candidatesEnumerated.Add(dp.visited)
	indexHits.Add(dp.hits)
	if len(dp.feasible) == 0 {
		return leafResult{}
	}
	best := bestInKeyOrder(dp.feasible, dp.opt.Objective)
	return leafResult{ok: true, fpr: best.fpr, pat: pattern.Pattern{Toks: slices.Clone(best.pat.Toks)}}
}

// score is the leaf's visitor: it looks the candidate up in the index and
// keeps it if it is feasible. Every leaf candidate matches all of the
// segment's values, so matched ties and is left zero. An append that
// moves hitToks leaves the tokens of the hits already kept where they
// were, which nothing writes to again during this leaf.
func (dp *segmentDP) score(key string, toks []pattern.Tok) {
	dp.visited++
	e, ok := dp.idx.Lookup(key)
	if !ok {
		return
	}
	dp.hits++
	fpr := e.FPR()
	if fpr > dp.opt.R || int(e.Cov) < dp.opt.M {
		return
	}
	lo := len(dp.hitToks)
	dp.hitToks = append(dp.hitToks, toks...)
	pat := pattern.Pattern{Toks: dp.hitToks[lo:len(dp.hitToks):len(dp.hitToks)]}
	dp.feasible = append(dp.feasible, scored{pat: pat, key: key, fpr: fpr, cov: e.Cov})
}

// bestInKeyOrder sorts hits by key and reduces them with better in that
// order, which is the order selectBest meets a leaf's candidates in (it
// sorts by descending support, then key, and they all have full
// support). better is not transitive, so the order decides the winner.
func bestInKeyOrder(hits []scored, obj Objective) scored {
	slices.SortFunc(hits, func(a, b scored) int { return strings.Compare(a.key, b.key) })
	best := hits[0]
	for i := 1; i < len(hits); i++ {
		if better(obj, &hits[i], &best) {
			best = hits[i]
		}
	}
	return best
}

// leafEnum is the enumeration of a leaf: every pattern must match all of
// the segment's kept values, and none is longer than τ.
func (dp *segmentDP) leafEnum() pattern.EnumOptions {
	enum := dp.opt.Enum
	enum.MaxTokens = dp.opt.Tau
	enum.MinSupport = 1.0
	return enum
}

// gather lists segment s..e of the kept values as spans, in row order,
// and spells the memo key from them: each span's value index and fine-run
// bounds as uvarints, which fix its text and weight under either
// tokenization, so no text is hashed or copied. It returns the weight of
// the rows gapped throughout, and whether the others all have the same
// text (each compared with the first).
func (dp *segmentDP) gather(s, e int) (emptyW int, uniform bool) {
	col := dp.col
	dp.spans = dp.spans[:0]
	key := dp.key[:0]
	uniform = true
	var first string
	for _, row := range dp.rows {
		// A row's runs in columns s..e are consecutive, gaps or not,
		// so its members' texts there are substrings of the values.
		lo, hi := -1, -1
		for _, ri := range row.cols[s : e+1] {
			if ri != msa.Gap {
				if lo < 0 {
					lo = ri
				}
				hi = ri + 1
			}
		}
		for _, i := range row.members {
			if lo < 0 {
				emptyW += col.weights[i]
				continue
			}
			sp := span{i: i, flo: lo, fhi: hi, mlo: lo, mhi: hi}
			if dp.merge {
				sp.flo, sp.fhi = col.first[i][lo], col.first[i][hi]
			}
			if len(dp.spans) == 0 {
				first = dp.text(sp)
			} else if uniform {
				uniform = dp.text(sp) == first
			}
			dp.spans = append(dp.spans, sp)
			key = binary.AppendUvarint(key, uint64(i))
			key = binary.AppendUvarint(key, uint64(sp.flo))
			key = binary.AppendUvarint(key, uint64(sp.fhi))
		}
	}
	dp.key = key
	return emptyW, uniform
}

// text is a span's text, a substring of its value.
func (dp *segmentDP) text(sp span) string {
	off := dp.col.off[sp.i]
	return dp.col.uniq[sp.i][off[sp.flo]:off[sp.fhi]]
}

// dedupe fills the leaf scratch with the gathered spans de-duplicated the
// way Enumerate would have, had each text been handed to it weight-fold
// in row order: first occurrence fixes the slot, and a text first met
// beyond Enum.MaxValues is dropped. In merge mode a text's merged runs
// are a sub-slice of its value's.
//
// A leaf enumerates at full support, so it has a candidate only if every
// kept text has one class shape under the fine runs, all within τ, or one
// under the merged runs (Enumerate's two passes). dedupe compares each
// kept text's shapes with the first's, run by run, and reports false —
// no candidate — as soon as both are ruled out, leaving the scratch
// partly filled.
func (dp *segmentDP) dedupe() bool {
	col, maxValues, tau := dp.col, dp.opt.Enum.MaxValues, dp.opt.Tau
	clear(dp.slot)
	dp.texts, dp.weights, dp.fine, dp.merged, dp.slab = dp.texts[:0], dp.weights[:0], dp.fine[:0], dp.merged[:0], dp.slab[:0]
	fineOK, mergedOK := true, dp.opt.Enum.IncludeAlnumPass
	for _, sp := range dp.spans {
		text, w := dp.text(sp), col.weights[sp.i]
		if k, ok := dp.slot[text]; ok {
			dp.weights[k] += w
			continue
		}
		if maxValues > 0 && len(dp.texts) >= maxValues {
			continue // dropped: it takes no part in the enumeration
		}
		fine := col.fine[sp.i][sp.flo:sp.fhi]
		var merged []tokens.Run
		if dp.merge {
			merged = col.merged[sp.i][sp.mlo:sp.mhi]
		} else {
			n := len(dp.slab)
			dp.slab = tokens.MergeAlnum(dp.slab, text, fine)
			merged = dp.slab[n:]
		}
		if len(dp.texts) == 0 {
			fineOK = len(fine) <= tau
			mergedOK = mergedOK && len(merged) <= tau
		} else {
			fineOK = fineOK && len(fine) <= tau && sameClassShape(fine, dp.fine[0])
			mergedOK = mergedOK && sameClassShape(merged, dp.merged[0])
		}
		if !fineOK && !mergedOK {
			return false
		}
		dp.slot[text] = len(dp.texts)
		dp.texts = append(dp.texts, text)
		dp.weights = append(dp.weights, w)
		dp.fine = append(dp.fine, fine)
		dp.merged = append(dp.merged, merged)
	}
	return true
}

// sameClassShape reports whether a and b have the same class shape,
// comparing run by run: lexed and merged runs' classes name their shape
// letters one to one.
func sameClassShape(a, b []tokens.Run) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if a[k].Class != b[k].Class {
			return false
		}
	}
	return true
}

func isSeparator(s string) bool {
	for i := 0; i < len(s); i++ {
		switch tokens.ClassOf(s[i]) {
		case tokens.ClassSymbol, tokens.ClassSpace:
		default:
			return false
		}
	}
	return s != ""
}
