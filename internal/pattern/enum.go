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
// on weighted support — and hands visit each distinct candidate once,
// with its key, its tokens, the number of values it matches and the
// number of values considered (both with multiplicity, the latter incl.
// wide and empty values). It returns the values considered and how many
// of them were skipped as wider than MaxTokens under every tokenization;
// a column with none but those has no candidate.
//
// A key's support is final only once the whole space is searched, so the
// candidates are collected first and visited afterwards, in the order
// they were first met, straight from the pooled scratch: the key is the
// caller's to keep, toks is scratch, valid only until visit returns.
// Everything else a call works in is drawn from the pool too — the
// dedupe map, the distinct values and their weights, one slab holding
// every value's runs under both tokenizations, and the views into it —
// so an offline build or a horizontal cut that scores each candidate as
// it is visited copies no hypothesis space out.
func Visit(values []string, opt EnumOptions, visit func(key string, toks []Tok, matched, total int)) (total, wide int) {
	if len(values) == 0 {
		return 0, 0
	}
	em, total, wide := collect(values, opt)
	lo := 0
	for i, key := range em.keys {
		hi := em.tokEnd[i]
		visit(key, em.tokBuf[lo:hi:hi], em.matched(i), total)
		lo = hi
	}
	em.release()
	return total, wide
}

// Enumerate returns the candidates Visit would hand over, in its order
// (no part of the result; each key occurs once), copied out of the
// scratch: a fresh candidate slice, every candidate's tokens carved from
// one new block. It serves callers that look at a candidate more than
// once — PWheel's description lengths, the benchmark's lookup layer and
// the tests' oracles.
func Enumerate(values []string, opt EnumOptions) EnumResult {
	var res EnumResult
	if len(values) == 0 {
		return res
	}
	em, total, wide := collect(values, opt)
	res.Total, res.Wide, res.Candidates = total, wide, em.finish()
	em.release()
	return res
}

// collect draws an emitter from the pool and collects the candidates of
// the column into it, returning it (for the caller to release) with the
// values considered and those skipped as wide.
func collect(values []string, opt EnumOptions) (em *emitter, total, wide int) {
	em = emitters.Get().(*emitter)
	em.reset(opt, nil)
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
	em.minCount = max(1, int(math.Ceil(opt.MinSupport*float64(total))))
	em.words = (len(em.weights) + 63) / 64
	// The alnum pass runs first: it is cheap and yields the most
	// general candidates, so if MaxPatterns caps the enumeration the
	// safest (most general) patterns are the ones retained.
	if opt.IncludeAlnumPass {
		em.enumeratePass(em.merged, true)
	}
	em.enumeratePass(em.fine, false)
	return em, total, wide
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
	em.reset(opt, visit)
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
	return &emitter{dedupe: map[string]int{}, groupOf: map[string]int{}, byKey: map[string]int{}}
}}

// The pooled maps are emptied for reuse by deleting the keys the last
// call put there: clear would cost time in proportion to a map's
// capacity, which never shrinks, on every call however few keys it
// made. A pass with more shapes than maxRetainedShapes drops the shape
// map, a call with more candidates than maxRetainedKeys — more than
// the default MaxPatterns allows — drops its candidate scratch, and one
// with more distinct values than maxRetainedValues (or runs than
// maxRetainedRuns) drops its column scratch, so a pooled emitter stays
// bounded.
const (
	maxRetainedShapes = 64
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

// emitter is one enumeration's working state. Everything in it is
// scratch reused by the next call, except the candidate keys, which are
// the caller's, and what finish copies out.
type emitter struct {
	opt      EnumOptions
	visit    func(key string, toks []Tok) // nil: collect
	minCount int
	words    int
	n        int // candidates emitted, towards MaxPatterns

	// The column of a collecting call: its distinct values (dedupe maps
	// each to its index) and their weights, and each value's runs under
	// the fine and the merged tokenization, views into the one slab runs.
	dedupe  map[string]int
	uniq    []string
	weights []int
	runs    []tokens.Run
	fine    [][]tokens.Run
	merged  [][]tokens.Run

	// Shape groups of the current pass: shape is the key being built,
	// gid[i] is value i's group (or -1), and members lists every
	// group's members, group after group.
	shape   []byte
	groupOf map[string]int
	groups  []shapeGroup
	gid     []int
	members []int

	// Per-position counts and the options of the current group: opts
	// holds every position's options in position order, ends[pos] the
	// end of position pos's. Option texts are carved from text, option
	// and prefix bitsets from bits.
	texts []weighed[string]
	lens  []weighed[int]
	opts  []option
	ends  []int
	text  []byte
	bits  []uint64
	acc   []bitset
	toks  []Tok

	// key is the canonical key of the tokens dfs has chosen so far,
	// grown and cut back as it descends and returns.
	key []byte

	// Candidates collected so far (a visiting call keeps none):
	// candidate i has key keys[i] and tokens
	// tokBuf[tokEnd[i-1]:tokEnd[i]], and matches the values in
	// cbits[i*words:(i+1)*words].
	byKey  map[string]int
	keys   []string
	tokBuf []Tok
	tokEnd []int
	cbits  []uint64
}

// reset starts a call that collects its candidates (visit nil) or hands
// them to visit.
func (em *emitter) reset(opt EnumOptions, visit func(string, []Tok)) {
	em.opt, em.visit, em.n = opt, visit, 0
	em.keys, em.tokBuf, em.tokEnd, em.cbits = em.keys[:0], em.tokBuf[:0], em.tokEnd[:0], em.cbits[:0]
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

// release returns em to the pool without the caller's visit or the
// candidate keys, which belong to the caller, and without a string of the
// caller's column: what the column scratch held is deleted or zeroed.
func (em *emitter) release() {
	em.visit = nil
	if cap(em.uniq) > maxRetainedValues || cap(em.runs) > maxRetainedRuns {
		em.dedupe, em.uniq, em.weights, em.runs, em.fine, em.merged = map[string]int{}, nil, nil, nil, nil, nil
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
	if len(em.keys) > maxRetainedKeys {
		em.byKey, em.keys, em.tokBuf, em.tokEnd, em.cbits = map[string]int{}, nil, nil, nil, nil
	} else {
		for _, key := range em.keys {
			delete(em.byKey, key)
		}
		clear(em.keys)
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
// shape), so pattern caps favour well-supported shapes.
func (em *emitter) enumeratePass(runsOf [][]tokens.Run, alnumPass bool) {
	if len(em.groupOf) > maxRetainedShapes {
		em.groupOf = map[string]int{}
	} else {
		for _, g := range em.groups {
			delete(em.groupOf, g.key)
		}
	}
	em.groups, em.gid = em.groups[:0], em.gid[:0]
	for i, runs := range runsOf {
		if len(runs) == 0 || !fits(em.opt, len(runs)) {
			em.gid = append(em.gid, -1)
			continue
		}
		em.shape = tokens.AppendClassShape(em.shape[:0], runs)
		g, ok := em.groupOf[string(em.shape)]
		if !ok {
			g = len(em.groups)
			key := string(em.shape)
			em.groupOf[key] = g
			em.groups = append(em.groups, shapeGroup{key: key})
		}
		em.groups[g].n++
		em.groups[g].weight += em.weights[i]
		em.gid = append(em.gid, g)
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
	for _, g := range em.groups {
		em.enumerateGroup(em.members[g.lo:g.lo+g.n], g.weight, runsOf, alnumPass)
	}
}

// emit records the pattern toks, whose canonical key dfs has assembled
// in em.key, as matching the values in bs, or hands it to visit: a
// visiting call never meets a key twice.
func (em *emitter) emit(toks []Tok, bs bitset) {
	if em.visit == nil {
		if i, ok := em.byKey[string(em.key)]; ok {
			bitset(em.cbits[i*em.words : (i+1)*em.words]).or(bs)
			return
		}
	}
	if (Pattern{Toks: toks}).IsTrivial() || em.full() {
		return
	}
	em.n++
	key := string(em.key)
	if em.visit != nil {
		em.visit(key, toks)
		return
	}
	em.byKey[key] = len(em.keys)
	em.keys = append(em.keys, key)
	em.tokBuf = append(em.tokBuf, toks...)
	em.tokEnd = append(em.tokEnd, len(em.tokBuf))
	em.cbits = append(em.cbits, bs...)
}

// matched is the weighted number of values candidate i matches.
func (em *emitter) matched(i int) int {
	return bitset(em.cbits[i*em.words : (i+1)*em.words]).weightedCount(em.weights)
}

// finish copies the candidates out of the scratch, in the order they were
// first emitted, every candidate's tokens carved from one new block.
func (em *emitter) finish() []Candidate {
	if len(em.keys) == 0 {
		return nil
	}
	block := slices.Clone(em.tokBuf)
	out := make([]Candidate, len(em.keys))
	lo := 0
	for i, key := range em.keys {
		hi := em.tokEnd[i]
		out[i] = Candidate{Pattern: Pattern{Toks: block[lo:hi:hi]}, Key: key, Matched: em.matched(i)}
		lo = hi
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
	em.search(npos)
}

// search explores the cross-product of the npos positions' options in
// em.opts, depth first.
func (em *emitter) search(npos int) {
	em.toks = slices.Grow(em.toks[:0], npos)[:npos]
	em.key = em.key[:0]
	em.dfs(0, npos)
}

// dfs chooses an option at pos and descends. A collecting search tracks
// in acc which members the chosen prefix matches and prunes on their
// weight; a visiting one enumerates a summary, whose every option matches
// every value, so it tracks nothing.
func (em *emitter) dfs(pos, npos int) {
	if em.full() {
		return
	}
	if pos == npos {
		var bs bitset
		if em.visit == nil {
			bs = em.acc[pos]
		}
		em.emit(em.toks, bs)
		return
	}
	keyLen := len(em.key)
	lo := 0
	if pos > 0 {
		lo = em.ends[pos-1]
	}
	for _, o := range em.opts[lo:em.ends[pos]] {
		switch {
		case em.visit != nil: // every option matches every value
		case o.all:
			// acc[pos] is within the group and already reaches minCount.
			copy(em.acc[pos+1], em.acc[pos])
		default:
			em.acc[pos+1].andInto(em.acc[pos], o.bs)
			if em.acc[pos+1].weightedCount(em.weights) < em.minCount {
				continue
			}
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
	em.search(len(sum))
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

// tally returns dst holding, in key order, the keys of the members that
// weigh at least min in all, and reports whether the members' keys
// differ. When min is over half of groupWeight only a majority key can
// qualify, and one weighted vote finds it; otherwise the keys are sorted
// and equal runs merged. No map is built or cleared per position.
func tally[K comparable](dst []weighed[K], members, weights []int, keyOf func(i int) K, compare func(a, b K) int, min, groupWeight int) ([]weighed[K], bool) {
	dst = dst[:0]
	if 2*min > groupWeight {
		var cand K // Boyer-Moore majority vote, weighted
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
	for _, i := range members {
		dst = append(dst, weighed[K]{keyOf(i), weights[i]})
	}
	slices.SortFunc(dst, func(a, b weighed[K]) int { return compare(a.key, b.key) })
	d, mixed := -1, false
	for _, e := range dst {
		if d >= 0 && dst[d].key == e.key {
			dst[d].w += e.w
			continue
		}
		mixed = d >= 0
		if d < 0 || dst[d].w >= min {
			d++
		}
		dst[d] = e
	}
	if dst[d].w < min {
		d--
	}
	return dst[:d+1], mixed
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
		em.texts, mixed = tally(em.texts, members, em.weights, func(i int) string { return runsOf[i][pos].Text },
			strings.Compare, max(minConst, 1, em.minCount), groupWeight)
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
	em.lens, _ = tally(em.lens, members, em.weights, func(i int) int { return len(runsOf[i][pos].Text) },
		cmp.Compare[int], em.minCount, groupWeight)
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

func (b bitset) or(c bitset) {
	for i := range b {
		b[i] |= c[i]
	}
}

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
