package pattern

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"strings"
	"sync"

	"autovalidate/internal/tokens"
)

// EnumOptions control the pattern enumeration of Algorithm 1. The zero
// value is not useful; start from DefaultEnumOptions.
type EnumOptions struct {
	// MinSupport is the fraction of the column's values a pattern must
	// match to be retained (Algorithm 1's coverage threshold). 1.0
	// yields the intersection semantics of H(C) = ∩ P(v); lower values
	// yield the union-with-support semantics used by FMDV-H (Eq. 13)
	// and by offline indexing of P(D).
	MinSupport float64
	// MaxTokens is τ, the token-count cap of §2.4. Values with more
	// than MaxTokens non-space tokens are skipped (they count against
	// support but generate no patterns); vertical cuts compensate.
	MaxTokens int
	// MaxPatterns caps the number of distinct patterns emitted for one
	// column, a tractability lever on top of τ.
	MaxPatterns int
	// MaxConstsPerPos caps the distinct constants offered at one
	// aligned position, and MinConstSupport is the minimum in-column
	// support fraction for a constant to be offered at all.
	MaxConstsPerPos int
	MinConstSupport float64
	// MaxLengthsPerPos caps the distinct fixed-width options <class>{k}
	// offered at one position.
	MaxLengthsPerPos int
	// MaxValues caps the number of distinct values used to compute
	// supports; columns are deduplicated with multiplicity weights
	// first, so this is rarely binding in benchmarks.
	MaxValues int
	// IncludeAlnumPass enables the coarser second tokenization in which
	// adjacent letter and digit runs merge into <alnum> runs, producing
	// the <alnum>{k} / <alnum>+ generalizations of Figure 4.
	IncludeAlnumPass bool
}

// DefaultEnumOptions returns the settings used throughout the paper's
// experiments: τ=13 with in-column coverage pruning.
func DefaultEnumOptions() EnumOptions {
	return EnumOptions{
		MinSupport:       0.05,
		MaxTokens:        13,
		MaxPatterns:      50000,
		MaxConstsPerPos:  3,
		MinConstSupport:  0.10,
		MaxLengthsPerPos: 3,
		MaxValues:        1000,
		IncludeAlnumPass: true,
	}
}

// Candidate is one enumerated pattern with its in-column support.
type Candidate struct {
	Pattern Pattern
	Key     string // Pattern.Key(), rendered once during enumeration
	Matched int    // number of values (with multiplicity) the pattern matches
}

// EnumResult is the outcome of enumerating one column.
type EnumResult struct {
	Candidates []Candidate
	Total      int // total values considered, with multiplicity (incl. wide and empty)
	Wide       int // values skipped because they exceed MaxTokens
}

// Visit enumerates the coverage-pruned pattern space of a column of
// values per Algorithm 1 — values are grouped by coarse token shape, each
// aligned position is generalized independently along the Figure 4
// hierarchy, and the cross-product is explored depth-first with pruning
// on weighted support — and hands visit each distinct candidate once, as
// the search emits it: its key, its tokens, the number of values it
// matches and the number of values considered (both with multiplicity,
// the latter incl. wide and empty values). It returns the values
// considered and how many of them were skipped as wider than MaxTokens
// under every tokenization; a column with none but those has no
// candidate.
//
// The search meets each key once, so a candidate's support is final when
// it is emitted: within a pass a key fixes its class shape, so no two
// shape groups share one, and the only keys both passes can build are
// those of a group with no letter or digit run, which has the same
// members under both tokenizations and is searched by the alnum pass
// alone. key and toks are scratch, valid only until visit returns.
// Everything a call works in is drawn from a pool — the distinct values
// and their weights, one slab holding every value's runs under both
// tokenizations, the views into it and the search's state — so a call
// allocates nothing once the pool is warm, and an offline build or a
// horizontal cut that scores each candidate as it is visited copies no
// hypothesis space out.
func Visit(values []string, opt EnumOptions, visit func(key []byte, toks []Tok, matched, total int)) (total, wide int) {
	if len(values) == 0 {
		return 0, 0
	}
	em := emitters.Get().(*emitter)
	em.reset(opt)
	em.visit = visit
	total, wide = em.column(values)
	em.release()
	return total, wide
}

// Enumerate returns the candidates Visit would hand over, in its order
// (no part of the result; each key occurs once). The search collects
// them in the emitter's slabs, and they are copied out in one piece: a
// fresh candidate slice, every key carved from one new string and every
// candidate's tokens from one new block. It serves callers that look at
// a candidate more than once — PWheel's description lengths, the
// benchmark's lookup layer and the tests' oracles.
func Enumerate(values []string, opt EnumOptions) EnumResult {
	var res EnumResult
	if len(values) == 0 {
		return res
	}
	em := emitters.Get().(*emitter)
	em.reset(opt)
	res.Total, res.Wide = em.column(values)
	res.Candidates = em.finish()
	em.release()
	return res
}

// column lexes the values into em and searches their pattern space,
// handing each candidate to em.visit (or collecting it when that is nil).
// It returns the values considered and those skipped as wide.
func (em *emitter) column(values []string) (total, wide int) {
	opt := em.opt
	em.lex(values)
	for i, w := range em.weights {
		total += w
		// Shape groups exclude empty values. The τ cap applies per
		// tokenization: a value too wide under the fine lexer may still
		// be narrow once adjacent alphanumeric runs merge (e.g. random
		// alphanumeric identifiers), so it participates in the alnum
		// pass only. Values wide under every tokenization are skipped
		// entirely — the columns vertical cuts compensate for.
		if !fits(opt, len(em.fine[i])) && !(opt.IncludeAlnumPass && fits(opt, len(em.merged[i]))) {
			wide += w
		}
	}
	em.total = total
	em.minCount = max(1, int(math.Ceil(opt.MinSupport*float64(total))))
	em.words = (len(em.weights) + 63) / 64
	// The alnum pass runs first: it is cheap and yields the most
	// general candidates, so if MaxPatterns caps the enumeration the
	// safest (most general) patterns are the ones retained.
	if opt.IncludeAlnumPass {
		em.enumeratePass(em.merged, true)
	}
	em.enumeratePass(em.fine, false)
	return total, wide
}

// Position summarises one run position of a column's values that share
// one class shape: the run's class, the text every value's run there has
// ("" when they differ) and the length they all have (0 when they
// differ). At full support these three are all of the column that the
// position's options depend on.
type Position struct {
	Class tokens.Class
	Text  string
	Len   int
}

// EnumerateSummary visits the hypothesis space H(C) of a column (its
// candidates at MinSupport 1, whatever opt.MinSupport says) from the
// column's position summaries: merged summarises the values' runs with
// adjacent letter and digit runs merged, fine their lexed runs, and a nil
// summary stands for a tokenization under which the values share no class
// shape (or the column has an empty value). It hands visit the candidates
// Enumerate would return — the same keys and tokens, as many — each once,
// in the search's order. The key is the caller's to keep; toks is the
// enumerator's scratch, valid only until visit returns.
//
// Weights, duplicates and the texts themselves do not enter: at full
// support every option is one every value has, so the search is a plain
// cross-product of per-position options, and columns with equal summaries
// have equal hypothesis spaces. Nor can the two passes meet the same key:
// every merged key has an <alnum> token and no fine key has one, unless
// the values have no letter or digit run, and then the summaries are
// equal and the fine pass is skipped. The vertical-cut search folds each
// segment into its summaries, and flat FMDV at θ = 0 (with InferNoIndex
// and InferTag at maxFNR 0) the whole column; both score each candidate
// as it is visited, so no hypothesis space is ever copied out. The
// working state is drawn from a pool and reset on each call.
func EnumerateSummary(merged, fine []Position, opt EnumOptions, visit func(key string, toks []Tok)) {
	em := emitters.Get().(*emitter)
	em.reset(opt)
	em.sum = visit
	if opt.IncludeAlnumPass {
		em.enumerateSummary(merged)
	}
	if !opt.IncludeAlnumPass || !slices.Equal(merged, fine) {
		em.enumerateSummary(fine)
	}
	em.release()
}

// fits reports whether n tokens are within the τ cap.
func fits(opt EnumOptions, n int) bool {
	return opt.MaxTokens <= 0 || n <= opt.MaxTokens
}

// Dedupe returns the distinct values in order of first occurrence and how
// often each occurs. maxValues > 0 caps the distinct values kept: a value
// first met beyond the cap is dropped with all its occurrences, so the
// weights then sum to less than len(values).
func Dedupe(values []string, maxValues int) (uniq []string, weights []int) {
	return appendDedupe(make(map[string]int, len(values)), nil, nil, values, maxValues)
}

// appendDedupe is Dedupe appending to uniq and weights, with idx (empty)
// mapping each distinct value kept to its index.
func appendDedupe(idx map[string]int, uniq []string, weights []int, values []string, maxValues int) ([]string, []int) {
	for _, v := range values {
		if i, ok := idx[v]; ok {
			weights[i]++
			continue
		}
		if maxValues > 0 && len(uniq) >= maxValues {
			continue
		}
		idx[v] = len(uniq)
		uniq = append(uniq, v)
		weights = append(weights, 1)
	}
	return uniq, weights
}

// emitters pools the enumerator's working state across calls.
var emitters = sync.Pool{New: func() any {
	return &emitter{dedupe: map[string]int{}, shapes: map[string]int{}, slot: map[string]int{}}
}}

// The pooled dedupe and text-slot maps are emptied for reuse by deleting
// the keys the last call put there: clear would cost time in proportion
// to a map's capacity, which never shrinks, on every call however few
// keys it made. The class shapes met are kept across calls, up to
// maxRetainedShapes of them. A call with more candidates than
// maxRetainedKeys — more than the default MaxPatterns allows — drops its
// candidate scratch, and one with more distinct values than
// maxRetainedValues (or runs than maxRetainedRuns, or a run longer than
// that) drops its column scratch, so a pooled emitter stays bounded.
const (
	maxRetainedShapes = 1 << 10
	maxRetainedKeys   = 1 << 16
	maxRetainedValues = 1 << 12
	maxRetainedRuns   = 1 << 16
)

// shapeGroup is the values of one class shape in one pass: members
// [lo, lo+n) of emitter.members, weighing weight in all.
type shapeGroup struct {
	key    string
	lo, n  int
	weight int
}

// shapeSlot is a class shape some call has met, and the shape group it
// is in the current pass when pass is the emitter's.
type shapeSlot struct {
	key  string
	pass uint64
	g    int
}

// option is one generalization choice at an aligned position together
// with the set of group members it matches and its rendered key text.
// all marks an option that matches every member of the group.
type option struct {
	tok  Tok
	bs   bitset
	text []byte
	all  bool
}

// weighed is a key at one position — a run's text or its length — with
// the total weight of the members whose run has it.
type weighed[K comparable] struct {
	key K
	w   int
}

// emitter is one enumeration's working state, all of it scratch reused
// by the next call but what finish copies out.
type emitter struct {
	opt      EnumOptions
	sum      func(key string, toks []Tok)                     // EnumerateSummary's visitor
	visit    func(key []byte, toks []Tok, matched, total int) // Visit's; both nil: collect
	total    int
	minCount int
	words    int
	n        int // candidates emitted, towards MaxPatterns

	// The column of a call: its distinct values (dedupe maps each to its
	// index) and their weights, and each value's runs under the fine and
	// the merged tokenization, views into the one slab runs.
	dedupe  map[string]int
	uniq    []string
	weights []int
	runs    []tokens.Run
	fine    [][]tokens.Run
	merged  [][]tokens.Run

	// Shape groups of the current pass: shape is the key being built,
	// shapes maps each shape met to its slot, gid[i] is value i's group
	// (or -1), and members lists every group's members, group after
	// group.
	shape   []byte
	shapes  map[string]int
	slots   []shapeSlot
	pass    uint64
	groups  []shapeGroup
	gid     []int
	members []int

	// Per-position tallies — slot maps a run text to its entry in texts,
	// lenW[l] is the weight of the members whose run is l long — and the
	// options of the current group: opts holds every position's options
	// in position order, ends[pos] the end of position pos's. Option
	// texts are carved from text, option and prefix bitsets from bits.
	slot  map[string]int
	texts []weighed[string]
	lenW  []int
	lens  []weighed[int]
	opts  []option
	ends  []int
	text  []byte
	bits  []uint64

	// The search: acc[pos] is the members the tokens chosen before pos
	// match, wt[pos] their weight; key is the canonical key of those
	// tokens, grown and cut back as dfs descends and returns.
	acc  []bitset
	wt   []int
	toks []Tok
	key  []byte

	// Candidates an Enumerate call collected: candidate i has key
	// keyBuf[keyEnd[i-1]:keyEnd[i]], tokens tokBuf[tokEnd[i-1]:tokEnd[i]]
	// and support support[i].
	keyBuf  []byte
	keyEnd  []int
	tokBuf  []Tok
	tokEnd  []int
	support []int
}

// reset starts a call under opt, with no visitor: it collects its
// candidates until the caller sets one.
func (em *emitter) reset(opt EnumOptions) {
	em.opt, em.n = opt, 0
	em.keyBuf, em.keyEnd, em.tokBuf, em.tokEnd, em.support = em.keyBuf[:0], em.keyEnd[:0], em.tokBuf[:0], em.tokEnd[:0], em.support[:0]
}

// lex dedupes values into em.uniq and em.weights and lexes each distinct
// value into em.runs, its fine runs followed by its merged runs. A view is
// carved as its runs are appended, and capped: an append that moves the
// slab leaves the views already carved where they were, which nothing
// writes to again, and MergeAlnum, which reads the fine runs as it appends
// the merged ones, writes only past them.
func (em *emitter) lex(values []string) {
	em.uniq, em.weights = appendDedupe(em.dedupe, em.uniq[:0], em.weights[:0], values, em.opt.MaxValues)
	em.runs, em.fine, em.merged = em.runs[:0], em.fine[:0], em.merged[:0]
	for _, v := range em.uniq {
		lo := len(em.runs)
		em.runs = tokens.AppendLex(em.runs, v)
		mid := len(em.runs)
		em.runs = tokens.MergeAlnum(em.runs, v, em.runs[lo:mid])
		em.fine = append(em.fine, em.runs[lo:mid:mid])
		em.merged = append(em.merged, em.runs[mid:len(em.runs):len(em.runs)])
	}
}

// release returns em to the pool without the caller's visitor and without
// a string of the caller's column: what the column scratch held is
// deleted or zeroed.
func (em *emitter) release() {
	em.visit, em.sum = nil, nil
	if cap(em.uniq) > maxRetainedValues || cap(em.runs) > maxRetainedRuns || len(em.lenW) > maxRetainedRuns {
		em.dedupe, em.uniq, em.weights, em.runs, em.fine, em.merged = map[string]int{}, nil, nil, nil, nil, nil
		em.slot, em.texts, em.lenW = map[string]int{}, nil, nil
	} else {
		for _, v := range em.uniq {
			delete(em.dedupe, v)
		}
		clear(em.uniq)
		clear(em.runs)
		clear(em.fine)
		clear(em.merged)
		em.uniq, em.runs, em.fine, em.merged = em.uniq[:0], em.runs[:0], em.fine[:0], em.merged[:0]
	}
	if len(em.keyEnd) > maxRetainedKeys {
		em.keyBuf, em.keyEnd, em.tokBuf, em.tokEnd, em.support = nil, nil, nil, nil, nil
	}
	emitters.Put(em)
}

func (em *emitter) full() bool {
	return em.opt.MaxPatterns > 0 && em.n >= em.opt.MaxPatterns
}

// newBits carves a zeroed bitset from em.bits.
func (em *emitter) newBits() bitset {
	n := len(em.bits)
	em.bits = append(em.bits, make([]uint64, em.words)...)
	return em.bits[n:len(em.bits):len(em.bits)]
}

// enumeratePass groups the values whose runsOf are non-empty and within
// τ by class shape and enumerates each group, heaviest first (ties by
// shape), so pattern caps favour well-supported shapes. A group with no
// letter or digit run has the same runs under both tokenizations, so the
// same members and the same candidates: when the alnum pass has searched
// it, the fine pass skips it, and no key is met twice.
func (em *emitter) enumeratePass(runsOf [][]tokens.Run, alnumPass bool) {
	if len(em.slots) > maxRetainedShapes {
		clear(em.shapes)
		em.slots = em.slots[:0]
	}
	em.pass++
	em.groups, em.gid = em.groups[:0], em.gid[:0]
	for i, runs := range runsOf {
		if len(runs) == 0 || !fits(em.opt, len(runs)) {
			em.gid = append(em.gid, -1)
			continue
		}
		em.shape = tokens.AppendClassShape(em.shape[:0], runs)
		s, ok := em.shapes[string(em.shape)]
		if !ok {
			s = len(em.slots)
			key := string(em.shape)
			em.shapes[key] = s
			em.slots = append(em.slots, shapeSlot{key: key})
		}
		sl := &em.slots[s]
		if sl.pass != em.pass {
			sl.pass, sl.g = em.pass, len(em.groups)
			em.groups = append(em.groups, shapeGroup{key: sl.key})
		}
		em.groups[sl.g].n++
		em.groups[sl.g].weight += em.weights[i]
		em.gid = append(em.gid, sl.g)
	}
	lo := 0
	for g := range em.groups {
		em.groups[g].lo, lo = lo, lo+em.groups[g].n
		em.groups[g].n = 0
	}
	em.members = slices.Grow(em.members[:0], lo)[:lo]
	for i, g := range em.gid {
		if g >= 0 {
			em.members[em.groups[g].lo+em.groups[g].n] = i
			em.groups[g].n++
		}
	}
	slices.SortFunc(em.groups, func(a, b shapeGroup) int {
		if a.weight != b.weight {
			return b.weight - a.weight
		}
		return strings.Compare(a.key, b.key)
	})
	skipPlain := !alnumPass && em.opt.IncludeAlnumPass
	for _, g := range em.groups {
		members := em.members[g.lo : g.lo+g.n]
		if skipPlain && !hasAlnum(runsOf[members[0]]) {
			continue
		}
		em.enumerateGroup(members, g.weight, runsOf, alnumPass)
	}
}

// hasAlnum reports whether runs has a letter or digit run.
func hasAlnum(runs []tokens.Run) bool {
	for _, r := range runs {
		if r.Class == tokens.ClassLetter || r.Class == tokens.ClassDigit {
			return true
		}
	}
	return false
}

// emit hands the pattern toks, whose canonical key dfs has assembled in
// em.key and which matches values weighing matched, to the visitor, or
// collects it.
func (em *emitter) emit(toks []Tok, matched int) {
	if (Pattern{Toks: toks}).IsTrivial() {
		return
	}
	em.n++
	switch {
	case em.visit != nil:
		em.visit(em.key, toks, matched, em.total)
	case em.sum != nil:
		em.sum(string(em.key), toks)
	default:
		em.keyBuf = append(em.keyBuf, em.key...)
		em.keyEnd = append(em.keyEnd, len(em.keyBuf))
		em.tokBuf = append(em.tokBuf, toks...)
		em.tokEnd = append(em.tokEnd, len(em.tokBuf))
		em.support = append(em.support, matched)
	}
}

// finish copies the collected candidates out of the scratch, in the order
// they were emitted: every key carved from one new string, every
// candidate's tokens from one new block.
func (em *emitter) finish() []Candidate {
	if len(em.keyEnd) == 0 {
		return nil
	}
	keys, block := string(em.keyBuf), slices.Clone(em.tokBuf)
	out := make([]Candidate, len(em.keyEnd))
	klo, tlo := 0, 0
	for i, khi := range em.keyEnd {
		thi := em.tokEnd[i]
		out[i] = Candidate{Pattern: Pattern{Toks: block[tlo:thi:thi]}, Key: keys[klo:khi], Matched: em.support[i]}
		klo, tlo = khi, thi
	}
	return out
}

// enumerateGroup explores the cross-product of per-position options for
// one shape group, pruning on weighted support.
func (em *emitter) enumerateGroup(members []int, groupWeight int, runsOf [][]tokens.Run, alnumPass bool) {
	if groupWeight < em.minCount {
		return // the whole group cannot reach the support threshold
	}
	if em.full() {
		return // every pattern of this group is dropped
	}
	npos := len(runsOf[members[0]])
	em.opts, em.ends, em.text, em.bits = em.opts[:0], em.ends[:0], em.text[:0], em.bits[:0]
	for pos := 0; pos < npos; pos++ {
		before := len(em.opts)
		em.positionOptions(members, runsOf, pos, groupWeight, alnumPass)
		if len(em.opts) == before {
			return
		}
		em.ends = append(em.ends, len(em.opts))
	}

	em.acc = append(em.acc[:0], em.newBits())
	for _, i := range members {
		em.acc[0].set(i)
	}
	for i := 1; i <= npos; i++ {
		em.acc = append(em.acc, em.newBits())
	}
	em.search(npos, groupWeight)
}

// search explores the cross-product of the npos positions' options in
// em.opts, depth first, from members weighing weight in all.
func (em *emitter) search(npos, weight int) {
	em.toks = slices.Grow(em.toks[:0], npos)[:npos]
	em.wt = slices.Grow(em.wt[:0], npos+1)[:npos+1]
	em.wt[0] = weight
	em.key = em.key[:0]
	em.dfs(0, npos)
}

// dfs chooses an option at pos and descends. A column's search tracks in
// acc which members the chosen prefix matches, and in wt their weight,
// and prunes on it, so a leaf's weight is its candidate's support; a
// summary's search, whose every option matches every value, tracks
// nothing.
func (em *emitter) dfs(pos, npos int) {
	if em.full() {
		return
	}
	if pos == npos {
		em.emit(em.toks, em.wt[pos])
		return
	}
	keyLen := len(em.key)
	lo := 0
	if pos > 0 {
		lo = em.ends[pos-1]
	}
	for _, o := range em.opts[lo:em.ends[pos]] {
		switch {
		case em.sum != nil: // every option matches every value
		case o.all:
			// acc[pos] is within the group and already reaches minCount.
			copy(em.acc[pos+1], em.acc[pos])
			em.wt[pos+1] = em.wt[pos]
		default:
			em.acc[pos+1].andInto(em.acc[pos], o.bs)
			w := em.acc[pos+1].weightedCount(em.weights)
			if w < em.minCount {
				continue
			}
			em.wt[pos+1] = w
		}
		em.toks[pos] = o.tok
		em.key = append(em.key[:keyLen], o.text...)
		em.dfs(pos+1, npos)
	}
}

// addTok appends the option t, matching the members in bs (all of them
// when all is set), to em.opts with its rendered key text.
func (em *emitter) addTok(t Tok, bs bitset, all bool) {
	lo := len(em.text)
	em.text = t.appendTo(em.text)
	em.opts = append(em.opts, option{tok: t, bs: bs, text: em.text[lo:len(em.text):len(em.text)], all: all})
}

// addOption appends the option t to em.opts and returns its bitset. An
// option matching all the members has its bitset filled from them;
// otherwise it is empty for the caller to fill.
func (em *emitter) addOption(t Tok, members []int, all bool) bitset {
	bs := em.newBits()
	if all {
		for _, i := range members {
			bs.set(i)
		}
	}
	em.addTok(t, bs, all)
	return bs
}

// enumerateSummary visits the cross-product of the options of every
// position of one tokenization's summary (nil: no shared class shape).
// It is enumerateGroup for a group that is the whole column at full
// support: each position offers positionOptions' choices in its order,
// every one matching every value.
func (em *emitter) enumerateSummary(sum []Position) {
	if len(sum) == 0 || !fits(em.opt, len(sum)) {
		return
	}
	if em.full() {
		return
	}
	em.opts, em.ends, em.text = em.opts[:0], em.ends[:0], em.text[:0]
	for _, p := range sum {
		before := len(em.opts)
		em.summaryOptions(p)
		if len(em.opts) == before {
			return
		}
		em.ends = append(em.ends, len(em.opts))
	}
	em.search(len(sum), 0)
}

// summaryOptions appends the options at a summarised position, in
// positionOptions' order. A run text every value has is a constant of
// full support, which any MinConstSupport up to 1 admits, and one
// constant or width is within any MaxConstsPerPos or MaxLengthsPerPos.
// Digit and letter runs occur only in the fine pass, which offers their
// constants.
func (em *emitter) summaryOptions(p Position) {
	lit := p.Text != "" && em.opt.MinConstSupport <= 1
	switch p.Class {
	case tokens.ClassDigit, tokens.ClassLetter, tokens.ClassAlnum:
		if p.Class == tokens.ClassDigit {
			em.addTok(Num(), nil, true)
		}
		em.addTok(ClassPlus(p.Class), nil, true)
		if p.Len > 0 {
			em.addTok(ClassN(p.Class, p.Len), nil, true)
		}
		lit = lit && p.Class != tokens.ClassAlnum
	case tokens.ClassSymbol:
		if p.Text == "" {
			em.addTok(ClassN(p.Class, 1), nil, true)
		}
	case tokens.ClassSpace:
		em.addTok(ClassPlus(p.Class), nil, true)
	default:
		return
	}
	if lit {
		em.addTok(Lit(p.Text), nil, true)
	}
}

// majority returns dst holding the key of the members that weighs more
// than half of groupWeight, if there is one and it weighs at least min,
// and reports whether the members' keys differ: one weighted
// Boyer-Moore vote finds the only candidate, and one more scan weighs it.
func majority[K comparable](dst []weighed[K], members, weights []int, keyOf func(i int) K, min, groupWeight int) ([]weighed[K], bool) {
	var cand K
	bal := 0
	for _, i := range members {
		k, w := keyOf(i), weights[i]
		switch {
		case k == cand:
			bal += w
		case bal >= w:
			bal -= w
		default:
			cand, bal = k, w-bal
		}
	}
	w := 0
	for _, i := range members {
		if keyOf(i) == cand {
			w += weights[i]
		}
	}
	if w >= min {
		dst = append(dst, weighed[K]{cand, w})
	}
	return dst, w < groupWeight
}

// atLeast drops from keys, in place, those weighing less than min.
func atLeast[K comparable](keys []weighed[K], min int) []weighed[K] {
	return slices.DeleteFunc(keys, func(e weighed[K]) bool { return e.w < min })
}

// tallyTexts sets em.texts to the run texts at pos of the members that
// weigh at least min in all, in no order, and reports whether the
// members' texts differ. When min is over half of groupWeight only a
// majority text can qualify, and majority finds it; otherwise each text
// is summed in its entry of em.texts, found through em.slot, whose keys
// are deleted again after.
func (em *emitter) tallyTexts(members []int, runsOf [][]tokens.Run, pos, min, groupWeight int) bool {
	if 2*min > groupWeight {
		var mixed bool
		em.texts, mixed = majority(em.texts[:0], members, em.weights, func(i int) string { return runsOf[i][pos].Text }, min, groupWeight)
		return mixed
	}
	em.texts = em.texts[:0]
	for _, i := range members {
		t := runsOf[i][pos].Text
		s, ok := em.slot[t]
		if !ok {
			s = len(em.texts)
			em.slot[t] = s
			em.texts = append(em.texts, weighed[string]{key: t})
		}
		em.texts[s].w += em.weights[i]
	}
	for _, e := range em.texts {
		delete(em.slot, e.key)
	}
	mixed := len(em.texts) > 1
	em.texts = atLeast(em.texts, min)
	return mixed
}

// tallyLens sets em.lens to the run lengths at pos of the members that
// weigh at least min in all, in no order: by a majority vote when min is
// over half of groupWeight, otherwise by counting each length's weight
// in em.lenW, which is zeroed again after.
func (em *emitter) tallyLens(members []int, runsOf [][]tokens.Run, pos, min, groupWeight int) {
	if 2*min > groupWeight {
		em.lens, _ = majority(em.lens[:0], members, em.weights, func(i int) int { return len(runsOf[i][pos].Text) }, min, groupWeight)
		return
	}
	em.lens = em.lens[:0]
	for _, i := range members {
		l := len(runsOf[i][pos].Text)
		if l >= len(em.lenW) {
			em.lenW = append(em.lenW, make([]int, l+1-len(em.lenW))...)
		}
		if em.lenW[l] == 0 { // every weight is at least 1
			em.lens = append(em.lens, weighed[int]{key: l})
		}
		em.lenW[l] += em.weights[i]
	}
	for k := range em.lens {
		l := em.lens[k].key
		em.lens[k].w, em.lenW[l] = em.lenW[l], 0
	}
	em.lens = atLeast(em.lens, min)
}

// heaviest orders keys by descending weight, then key, and keeps the
// first max of them (all when max ≤ 0).
func heaviest[K comparable](keys []weighed[K], compare func(a, b K) int, max int) []weighed[K] {
	slices.SortFunc(keys, func(a, b weighed[K]) int {
		if a.w != b.w {
			return b.w - a.w
		}
		return compare(a.key, b.key)
	})
	if max > 0 && len(keys) > max {
		keys = keys[:max]
	}
	return keys
}

// positionOptions appends to em.opts the generalization choices at one
// aligned position: constants (support-gated), fixed widths, the
// unbounded class, and <num> for digit runs — the drill-down step of
// Algorithm 1.
func (em *emitter) positionOptions(members []int, runsOf [][]tokens.Run, pos, groupWeight int, alnumPass bool) {
	class := runsOf[members[0]][pos].Class

	// Constants, most frequent first, gated by MinConstSupport.
	var consts []weighed[string]
	var mixed bool
	if class == tokens.ClassSymbol || class == tokens.ClassSpace ||
		(!alnumPass && (class == tokens.ClassDigit || class == tokens.ClassLetter)) {
		minConst := int(math.Ceil(em.opt.MinConstSupport * float64(groupWeight)))
		mixed = em.tallyTexts(members, runsOf, pos, max(minConst, 1, em.minCount), groupWeight)
		consts = heaviest(em.texts, strings.Compare, em.opt.MaxConstsPerPos)
	}
	addConsts := func() {
		for _, c := range consts {
			all := c.w == groupWeight
			if bs := em.addOption(Lit(c.key), members, all); !all {
				for _, i := range members {
					if runsOf[i][pos].Text == c.key {
						bs.set(i)
					}
				}
			}
		}
	}

	// Options are ordered most-general-first so that when MaxPatterns
	// caps the depth-first exploration, the safest generalizations are
	// the ones already emitted.
	switch class {
	case tokens.ClassDigit:
		em.addOption(Num(), members, true)
		em.addOption(ClassPlus(class), members, true)
		em.addWidths(class, members, runsOf, pos, groupWeight)
		addConsts()
	case tokens.ClassLetter:
		em.addOption(ClassPlus(class), members, true)
		em.addWidths(class, members, runsOf, pos, groupWeight)
		addConsts()
	case tokens.ClassAlnum:
		em.addOption(ClassPlus(class), members, true)
		em.addWidths(class, members, runsOf, pos, groupWeight)
	case tokens.ClassSymbol:
		// Symbol runs are single characters; offer the class token when
		// identities differ, and constants always (both passes keep
		// punctuation identity).
		if mixed {
			em.addOption(ClassN(class, 1), members, true)
		}
		addConsts()
	case tokens.ClassSpace:
		em.addOption(ClassPlus(class), members, true)
		addConsts()
	}
}

// addWidths adds the fixed widths <class>{k} at position pos that reach
// the support threshold, most frequent lengths first.
func (em *emitter) addWidths(class tokens.Class, members []int, runsOf [][]tokens.Run, pos, groupWeight int) {
	em.tallyLens(members, runsOf, pos, em.minCount, groupWeight)
	lens := heaviest(em.lens, cmp.Compare[int], em.opt.MaxLengthsPerPos)
	for _, l := range lens {
		all := l.w == groupWeight
		if bs := em.addOption(ClassN(class, l.key), members, all); !all {
			for _, i := range members {
				if len(runsOf[i][pos].Text) == l.key {
					bs.set(i)
				}
			}
		}
	}
}

// bitset is a fixed-width bit vector over value indexes.
type bitset []uint64

func (b bitset) set(i int) { b[i/64] |= 1 << (uint(i) % 64) }

func (b bitset) andInto(x, y bitset) {
	for i := range b {
		b[i] = x[i] & y[i]
	}
}

func (b bitset) weightedCount(weights []int) int {
	n := 0
	for wi, w := range b {
		for w != 0 {
			i := wi*64 + bits.TrailingZeros64(w)
			n += weights[i]
			w &= w - 1
		}
	}
	return n
}
