package core

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"sync"

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
//
// Leaves are answered by memo, which holds the index and options.
func inferVertical(values []string, memo *Memo, theta float64) (*validate.Rule, error) {
	// Solve under both tokenizations: the fine lexer preserves the most
	// structure, but columns like GUIDs have wildly diverse fine shapes
	// and a single coarse shape under alnum merging. Keep the one choose
	// picks by aggregated FPR (more specific on ties, fine on full ties).
	// The column is lexed once for both, and a segment both alignments
	// cut out (every segment, when no value has adjacent letter and digit
	// runs) is solved once.
	dp := newSegmentDP(memo, values)
	fine, errF := dp.infer(theta, false)
	merged, errM := dp.infer(theta, true)
	dp.release()
	switch {
	case errF != nil && errM != nil:
		return nil, errF
	case errF != nil:
		return merged, nil
	case errM != nil:
		return fine, nil
	}
	if choose([]scored{
		{pat: fine.Pattern, fpr: fine.EstimatedFPR},
		{pat: merged.Pattern, fpr: merged.EstimatedFPR},
	}, MinFPR) == 1 {
		return merged, nil
	}
	return fine, nil
}

// lexedColumn is a query column de-duplicated and lexed once: distinct
// value uniq[i] occurs weights[i] times and lexes to fine[i], or to
// merged[i] with adjacent letter and digit runs merged. off, first and
// owner locate a run span of either tokenization in the value and in the
// other tokenization, so a segment of the alignment is a substring and a
// sub-slice, never a new string.
type lexedColumn struct {
	uniq    []string
	weights []int
	total   int
	fine    [][]tokens.Run
	merged  [][]tokens.Run
	off     [][]int // off[i][k]: byte offset of fine[i][k] in uniq[i]; off[i][len(fine[i])] = len(uniq[i])
	first   [][]int // first[i][j]: index in fine[i] of merged[i][j]'s first run; first[i][len(merged[i])] = len(fine[i])
	owner   [][]int // owner[i][k]: index in merged[i] of the run that holds fine[i][k]
}

func lexColumn(values []string) *lexedColumn {
	uniq, weights := pattern.Dedupe(values, 0)
	n := len(uniq)
	col := &lexedColumn{
		uniq: uniq, weights: weights, total: len(values),
		fine: make([][]tokens.Run, n), merged: make([][]tokens.Run, n),
		off: make([][]int, n), first: make([][]int, n), owner: make([][]int, n),
	}
	// One run slab holds every value's fine runs, then its merged runs:
	// Count is the number of fine runs, and no value has more merged runs
	// than fine ones, so the slab never moves. One int slab holds every
	// value's off, first and owner.
	nfine := 0
	for _, v := range uniq {
		nfine += tokens.Count(v)
	}
	runs := make([]tokens.Run, 0, 2*nfine)
	for i, v := range uniq {
		lo := len(runs)
		runs = tokens.AppendLex(runs, v)
		mid := len(runs)
		runs = tokens.MergeAlnum(runs, v, runs[lo:mid])
		col.fine[i], col.merged[i] = runs[lo:mid:mid], runs[mid:len(runs):len(runs)]
	}
	ints := make([]int, nfine+len(runs)+2*n)
	for i := range uniq {
		fine, merged := col.fine[i], col.merged[i]
		nf, nm := len(fine), len(merged)
		off, first, owner := ints[:nf+1:nf+1], ints[nf+1:nf+nm+2:nf+nm+2], ints[nf+nm+2:2*nf+nm+2:2*nf+nm+2]
		ints = ints[2*nf+nm+2:]
		k := 0
		for j, m := range merged {
			first[j] = k
			for end := off[k] + len(m.Text); off[k] < end; k++ {
				off[k+1] = off[k] + len(fine[k].Text)
				owner[k] = j
			}
		}
		first[nm] = nf
		col.off[i], col.first[i], col.owner[i] = off, first, owner
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

	nrows := len(keptGroups)
	if dp.capped {
		nrows = len(dp.col.uniq) // at most
	}
	dp.merge, dp.ncols, dp.rows = merge, ncols, slices.Grow(dp.rows[:0], nrows)
	for gi, g := range keptGroups {
		if !dp.capped {
			dp.rows = append(dp.rows, alignedRow{cols: align.Rows[gi], members: g.members})
			continue
		}
		// The cap keeps the first MaxValues distinct texts of a segment,
		// which a row's first member does not stand for: one row a member.
		for k := range g.members {
			dp.rows = append(dp.rows, alignedRow{cols: align.Rows[gi], members: g.members[k : k+1]})
		}
	}
	dp.foldRows()
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

// segmentDP runs the bottom-up dynamic program of Eq. 11 over aligned
// token columns, for one query column under each tokenization in turn.
type segmentDP struct {
	leafScorer
	col  *lexedColumn
	memo *Memo

	// The alignment being solved, set by infer, and the slab foldRows
	// carves its rows' flags from. capped: the column has more distinct
	// values than Enum.MaxValues, so each row is one member.
	merge  bool // rows index col.merged, not col.fine
	capped bool
	ncols  int
	rows   []alignedRow
	vary   []uint8

	// Scratch of leaf, reused from segment to segment: the first of the
	// segment's kept texts and — when the column has more distinct values
	// than Enum.MaxValues — the texts kept so far.
	first string
	kept  map[string]struct{}
}

// newSegmentDP lexes values for the DP, whose leaves memo answers under
// its index and options.
func newSegmentDP(memo *Memo, values []string) *segmentDP {
	dp := &segmentDP{col: lexColumn(values), memo: memo, kept: map[string]struct{}{}}
	dp.leafScorer.init(memo.idx, memo.opt)
	dp.capped = memo.opt.Enum.MaxValues > 0 && len(dp.col.uniq) > memo.opt.Enum.MaxValues
	return dp
}

// leafScorer enumerates the hypothesis space of some texts from their
// position summaries and scores each candidate as it is visited: a DP
// leaf's segment, or the whole column under flat FMDV at θ = 0.
type leafScorer struct {
	idx *index.Index
	opt Options

	// The summaries of the texts under each tokenization, and the memo
	// key spelled from them.
	fine, merged summary
	key          []byte

	// The scorer, bound once, and what it was handed for the texts being
	// solved: how many candidates, how many of them the index knew, and
	// the feasible ones (pooled scratch).
	visit   func(key string, toks []pattern.Tok)
	visited uint64
	hits    uint64
	*hitScratch
}

func (lf *leafScorer) init(idx *index.Index, opt Options) {
	lf.idx, lf.opt, lf.hitScratch = idx, opt, hitScratches.Get().(*hitScratch)
	lf.visit = lf.score
}

// hitScratch is the feasible hits of the leaf being scored, with the slab
// their tokens are carved from. It is pooled across inferences, so that a
// column with many feasible hits does not grow them from empty each time.
type hitScratch struct {
	feasible []scored
	hitToks  []pattern.Tok
}

var hitScratches = sync.Pool{New: func() any { return new(hitScratch) }}

// A pooled hitScratch keeps room for at most this many hits and tokens.
const maxRetainedHits = 1 << 12

// reset empties the scratch. It zeroes what the last leaf wrote, so that
// nothing past the length holds a key or a token: a pooled scratch keeps
// no string of the index or of a column alive.
func (hs *hitScratch) reset() {
	clear(hs.feasible)
	clear(hs.hitToks)
	hs.feasible, hs.hitToks = hs.feasible[:0], hs.hitToks[:0]
}

// keep keeps the hit h, with tokens toks, if its FPR_T is at most r and
// its Cov_T at least m. The tokens are copied into hitToks: an append that
// moves it leaves the tokens of the hits already kept where they were,
// which nothing writes to again until the scratch is reset.
func (hs *hitScratch) keep(opt Options, h scored, toks []pattern.Tok) {
	if !feasible(opt, h.fpr, h.cov) {
		return
	}
	lo := len(hs.hitToks)
	hs.hitToks = append(hs.hitToks, toks...)
	h.pat = pattern.Pattern{Toks: hs.hitToks[lo:len(hs.hitToks):len(hs.hitToks)]}
	hs.feasible = append(hs.feasible, h)
}

// feasible reports whether a hypothesis of FPR_T fpr and Cov_T cov meets
// the constraints: fpr at most r and cov at least m.
func feasible(opt Options, fpr float64, cov uint32) bool {
	return fpr <= opt.R && int(cov) >= opt.M
}

// pick returns the hit choose picks from those kept, and false when none
// was. The winner outlives the scratch: it gets tokens of its own.
func (hs *hitScratch) pick(obj Objective) (scored, bool) {
	if len(hs.feasible) == 0 {
		return scored{}, false
	}
	best := hs.feasible[choose(hs.feasible, obj)]
	best.pat.Toks = slices.Clone(best.pat.Toks)
	return best, true
}

// release returns the scratch to the pool, unless it has grown too large
// to keep.
func (hs *hitScratch) release() {
	if cap(hs.feasible) <= maxRetainedHits && cap(hs.hitToks) <= maxRetainedHits {
		hs.reset()
		hitScratches.Put(hs)
	}
}

// release returns the scorer's scratch to the pool; the scorer scores
// nothing after.
func (lf *leafScorer) release() {
	hs := lf.hitScratch
	lf.hitScratch = nil
	hs.release()
}

// alignedRow is one kept shape group, or one member of one: cols[c] is
// the run its members contribute to aligned column c, or msa.Gap. weight
// is its members' total; fine and merged hold flags (textVaries …) per
// fine and merged run of its first member, where the others differ from
// it (foldRows).
type alignedRow struct {
	cols         []int
	members      []int
	weight       int
	fine, merged []uint8
}

// Flags of a row's run: its members' texts differ there, their lengths
// too, or — a merged run under the merged alignment — they split it into
// different fine runs (ab12, a1b2).
const (
	textVaries uint8 = 1 << iota
	lenVaries
	splitVaries
)

// foldRows folds each row's members into its flags, once per alignment,
// so that summarize folds a row as its first member. Under the fine
// alignment a row's members share their fine runs' classes, so their
// merged runs' too (runs merge by class alone). Under the merged
// alignment they share their merged runs' classes, and a fine run's flags
// mean something only inside a merged run not flagged splitVaries.
func (dp *segmentDP) foldRows() {
	col, n := dp.col, 0
	for _, row := range dp.rows {
		f := row.members[0]
		n += len(col.fine[f]) + len(col.merged[f])
	}
	dp.vary = slices.Grow(dp.vary[:0], n)[:n]
	clear(dp.vary)
	rest := dp.vary
	for r := range dp.rows {
		row := &dp.rows[r]
		f := row.members[0]
		nf, nm := len(col.fine[f]), len(col.merged[f])
		row.fine, row.merged, rest = rest[:nf:nf], rest[nf:nf+nm:nf+nm], rest[nf+nm:]
		row.weight = 0
		for _, i := range row.members {
			row.weight += col.weights[i]
		}
		for _, i := range row.members[1:] {
			varies(row.merged, col.merged[f], col.merged[i])
			if !dp.merge {
				varies(row.fine, col.fine[f], col.fine[i])
				continue
			}
			for j := range nm {
				a, b, c, d := col.first[f][j], col.first[f][j+1], col.first[i][j], col.first[i][j+1]
				if b-a != d-c || !varies(row.fine[a:b], col.fine[f][a:b], col.fine[i][c:d]) {
					row.merged[j] |= splitVaries
				}
			}
		}
	}
}

// varies flags the runs at which b's texts differ from a's, and reports
// whether a and b have the same classes, run for run (len(b) ≥ len(a)).
func varies(flags []uint8, a, b []tokens.Run) bool {
	for k := range a {
		if a[k].Class != b[k].Class {
			return false
		}
		if a[k].Text != b[k].Text {
			flags[k] |= textVaries
			if len(a[k].Text) != len(b[k].Text) {
				flags[k] |= lenVaries
			}
		}
	}
	return true
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
	if dp.opt.Tau > 0 && e-s+1 > dp.opt.Tau {
		return segResult{} // longer than any indexed pattern (§2.4)
	}
	emptyW, separator := dp.summarize(s, e)
	if dp.first == "" {
		return segResult{} // gapped throughout
	}

	// Constant separator fast path: a segment of pure punctuation or
	// whitespace that is byte-identical in every kept value is a
	// zero-risk glue token. The corpus index has no standalone column
	// for "[" or "|", so we admit it directly — this is the laptop-
	// scale stand-in for the paper's lake, where every narrow slice of
	// machine-generated data occurs as some column. Separators gapped
	// in part of the alignment (an optional " PM" suffix's space)
	// become optional literals.
	if separator {
		p := pattern.New(pattern.Lit(dp.first))
		if emptyW > 0 {
			p = pattern.Optional(p)
		}
		return segResult{ok: true, agg: 0, pats: []pattern.Pattern{p}}
	}

	// Segments with equal summaries have the same hypothesis space, so
	// the same best pattern, wherever they lie and whichever column or
	// tokenization they come from.
	res, hit := dp.memo.leaf(&dp.leafScorer)
	if hit {
		segmentsMemoized.Add(1)
	} else {
		segmentsSolved.Add(1)
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

// best enumerates the hypothesis space of the texts folded into the
// summaries, handing each candidate to visit, and returns the one
// choose picks from those whose FPR_T is at most r and Cov_T at least m,
// as selectBest would. Only the winner's tokens are copied out.
func (lf *leafScorer) best() leafResult {
	lf.visited, lf.hits = 0, 0
	lf.reset()
	pattern.EnumerateSummary(lf.merged.positions(), lf.fine.positions(), lf.leafEnum(), lf.visit)
	candidatesEnumerated.Add(lf.visited)
	indexHits.Add(lf.hits)
	best, ok := lf.pick(lf.opt.Objective)
	if !ok {
		return leafResult{}
	}
	return leafResult{ok: true, fpr: best.fpr, pat: best.pat}
}

// score is the leaf's visitor: it looks the candidate up in the index and
// keeps it if it is feasible.
func (lf *leafScorer) score(key string, toks []pattern.Tok) {
	lf.visited++
	e, ok := lf.idx.Lookup(key)
	if !ok {
		return
	}
	lf.hits++
	// Every leaf candidate matches all of the texts, so matched ties and
	// is left zero.
	lf.keep(lf.opt, scored{key: key, fpr: e.FPR(), cov: e.Cov}, toks)
}

// leafEnum is the enumeration of a leaf: every pattern must match all of
// its kept texts, and none is longer than τ.
func (lf *leafScorer) leafEnum() pattern.EnumOptions {
	enum := lf.opt.Enum
	enum.MaxTokens = lf.opt.Tau
	enum.MinSupport = 1.0
	return enum
}

// summarize folds the texts of segment s..e, in row order, into their
// position summaries under both tokenizations: every text, or when the
// column has more distinct values than Enum.MaxValues, the first that many
// distinct ones, as Enumerate would keep them. A row folds as its first
// member's text with its flags (foldRows), so a segment costs one text a
// row; when the column is capped each row is one member. A leaf
// enumerates at full support, so a tokenization has candidates only if
// every kept text has one class shape under it within τ (Enumerate's two
// passes), and the scan stops as soon as both are ruled out. Each text is
// a substring of its value and its runs are sub-slices of the value's,
// except that under the fine alignment a text's first and last merged
// runs may be clipped to it; nothing is copied.
//
// It returns the weight of the rows gapped throughout and whether every
// text is one and the same separator — every fine position one constant
// symbol or space run, and no text dropped by the cap (it would differ) —
// and leaves the first text in dp.first ("" when every row is gapped).
func (dp *segmentDP) summarize(s, e int) (emptyW int, separator bool) {
	col, maxValues := dp.col, dp.opt.Enum.MaxValues
	if dp.capped {
		clear(dp.kept)
	}
	dp.fine.reset(dp.opt.Tau, true)
	dp.merged.reset(dp.opt.Tau, dp.opt.Enum.IncludeAlnumPass)
	dp.first = ""
	all := true
	for r := range dp.rows {
		row := &dp.rows[r]
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
		if lo < 0 {
			emptyW += row.weight
			continue
		}
		i := row.members[0]
		v, off, first := col.uniq[i], col.off[i], col.first[i]
		flo, fhi, mlo, mhi := lo, hi, lo, hi
		if dp.merge {
			flo, fhi = first[lo], first[hi]
		} else {
			mlo, mhi = col.owner[i][lo], col.owner[i][hi-1]+1
		}
		text := v[off[flo]:off[fhi]]
		if dp.capped {
			if _, ok := dp.kept[text]; ok {
				continue // folded already
			}
			if len(dp.kept) >= maxValues {
				all = false
				continue // dropped: it takes no part in the enumeration
			}
			dp.kept[text] = struct{}{}
		}
		if dp.first == "" {
			dp.first = text
		}
		if dp.merge && split(row.merged[lo:hi]) {
			dp.fine.ok = false // two members' fine class shapes differ
		} else if dp.fine.start(fhi - flo) {
			for k, r := range col.fine[i][flo:fhi] {
				dp.fine.fold(k, r.Class, r.Text, row.fine[flo+k])
			}
		}
		if dp.merged.start(mhi - mlo) {
			for j := mlo; j < mhi; j++ {
				// Clipped to the text: a no-op under the merged alignment.
				a, b := max(first[j], flo), min(first[j+1], fhi)
				flags := row.merged[j]
				if a != first[j] || b != first[j+1] {
					flags = dp.clipped(row, a, b)
				}
				dp.merged.fold(j-mlo, col.merged[i][j].Class, v[off[a]:off[b]], flags)
			}
		}
		if !dp.fine.ok && !dp.merged.ok {
			return emptyW, false
		}
	}
	return emptyW, all && dp.fine.separator()
}

// split reports whether a row's members split one of these merged runs
// into different fine runs.
func split(merged []uint8) bool {
	for _, f := range merged {
		if f&splitVaries != 0 {
			return true
		}
	}
	return false
}

// clipped returns the flags of a row's merged run clipped to its fine
// runs a..b-1, under the fine alignment: its text differs across the
// members if one of those runs' does, and its length is read off every
// member only if one of those runs' length differs.
func (dp *segmentDP) clipped(row *alignedRow, a, b int) uint8 {
	var flags uint8
	for _, f := range row.fine[a:b] {
		flags |= f
	}
	if flags&lenVaries == 0 {
		return flags
	}
	off := dp.col.off[row.members[0]]
	n := off[b] - off[a]
	for _, i := range row.members[1:] {
		if off := dp.col.off[i]; off[b]-off[a] != n {
			return flags
		}
	}
	return flags &^ lenVaries
}

// summary folds the texts of a segment, one after another, into their
// position summaries under one tokenization; ok is false once they are
// ruled out (two texts differ in class shape, or one is wider than τ).
type summary struct {
	pos []pattern.Position
	n   int // texts folded
	tau int
	ok  bool
}

func (sm *summary) reset(tau int, on bool) {
	sm.pos, sm.n, sm.tau, sm.ok = sm.pos[:0], 0, tau, on
}

// start begins the next text, of n runs, and reports whether to fold it.
func (sm *summary) start(n int) bool {
	if sm.ok {
		if sm.n == 0 {
			sm.ok = sm.tau <= 0 || n <= sm.tau
		} else {
			sm.ok = n == len(sm.pos)
		}
	}
	sm.n++
	return sm.ok
}

// fold folds run k of the current text, which stands for its row's
// members: flags (foldRows) say where their texts differ from it.
func (sm *summary) fold(k int, class tokens.Class, text string, flags uint8) {
	if sm.n == 1 {
		p := pattern.Position{Class: class, Text: text, Len: len(text)}
		if flags&textVaries != 0 {
			p.Text = ""
		}
		if flags&lenVaries != 0 {
			p.Len = 0
		}
		sm.pos = append(sm.pos, p)
		return
	}
	p := &sm.pos[k]
	if p.Class != class {
		sm.ok = false
		return
	}
	// Stored only when it changes: a pointer store costs a write barrier.
	if p.Text != "" && (flags&textVaries != 0 || p.Text != text) {
		p.Text = ""
	}
	if p.Len != 0 && (flags&lenVaries != 0 || p.Len != len(text)) {
		p.Len = 0
	}
}

// foldRuns folds the next text, given as its runs, standing for itself
// alone (no flags).
func (sm *summary) foldRuns(runs []tokens.Run) {
	if sm.start(len(runs)) {
		for k, r := range runs {
			sm.fold(k, r.Class, r.Text, 0)
		}
	}
}

// positions is the summary, nil when ruled out.
func (sm *summary) positions() []pattern.Position {
	if !sm.ok {
		return nil
	}
	return sm.pos
}

// separator reports whether every position is one constant symbol or
// space run: the texts folded are one separator.
func (sm *summary) separator() bool {
	for _, p := range sm.positions() {
		if p.Text == "" || (p.Class != tokens.ClassSymbol && p.Class != tokens.ClassSpace) {
			return false
		}
	}
	return sm.ok
}

// spellKey spells the memo key of the texts folded into the summaries
// into lf.key: their merged summary, then their fine one.
func (lf *leafScorer) spellKey() {
	lf.key = appendSummary(appendSummary(lf.key[:0], lf.merged), lf.fine)
}

// appendSummary appends the summary to b, length-prefixed: a zero for
// one ruled out, else its positions' count, then each position's class,
// length and text.
func appendSummary(b []byte, sm summary) []byte {
	pos := sm.positions()
	b = binary.AppendUvarint(b, uint64(len(pos)))
	for _, p := range pos {
		b = append(b, byte(p.Class))
		b = binary.AppendUvarint(b, uint64(p.Len))
		b = binary.AppendUvarint(b, uint64(len(p.Text)))
		b = append(b, p.Text...)
	}
	return b
}
