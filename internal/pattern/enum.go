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
	Total      int  // total values considered, with multiplicity (incl. wide and empty)
	Wide       int  // values skipped because they exceed MaxTokens
	Empty      int  // empty-string values (match no non-trivial pattern)
	Capped     bool // true if MaxPatterns truncated the enumeration
}

// Enumerate produces the coverage-pruned pattern space of a column of
// values per Algorithm 1: values are grouped by coarse token shape, each
// aligned position is generalized independently along the Figure 4
// hierarchy, and the cross-product is explored depth-first with pruning
// on weighted support.
func Enumerate(values []string, opt EnumOptions) EnumResult {
	if len(values) == 0 {
		return EnumResult{}
	}
	uniq, weights := Dedupe(values, opt.MaxValues)
	fine := make([][]tokens.Run, len(uniq))
	merged := make([][]tokens.Run, len(uniq))
	for i, v := range uniq {
		fine[i] = tokens.Lex(v)
		merged[i] = tokens.MergeAlnum(make([]tokens.Run, 0, len(fine[i])), v, fine[i])
	}
	return EnumerateLexed(weights, fine, merged, opt)
}

// EnumerateLexed is Enumerate over a column already de-duplicated and
// lexed: distinct value i occurs weights[i] times and lexes to fine[i],
// or to merged[i] with adjacent letter and digit runs merged (both empty
// for the empty value). The vertical-cut search lexes a column once and
// enumerates each segment from sub-slices of those runs. The result
// keeps no reference to the three slices, which the caller may reuse.
//
// The result is the caller's: its candidates, keys and tokens share no
// memory with any other call's. The working state behind it — shape
// groups, per-position counts, options, bitsets and the rendered key — is
// drawn from a pool and reset on each call, so a search that enumerates
// many segments allocates little beyond the candidates it is returned.
func EnumerateLexed(weights []int, fine, merged [][]tokens.Run, opt EnumOptions) EnumResult {
	var res EnumResult
	for _, w := range weights {
		res.Total += w
	}
	minCount := int(math.Ceil(opt.MinSupport * float64(res.Total)))
	if minCount < 1 {
		minCount = 1
	}

	// Shape groups exclude empty values. The τ cap applies per
	// tokenization: a value too wide under the fine lexer may still be
	// narrow once adjacent alphanumeric runs merge (e.g. random
	// alphanumeric identifiers), so it participates in the alnum pass
	// only. Values wide under every tokenization are skipped entirely —
	// the columns vertical cuts compensate for.
	for i, runs := range fine {
		switch {
		case len(runs) == 0:
			res.Empty += weights[i]
		case !fits(opt, runs) && !(opt.IncludeAlnumPass && fits(opt, merged[i])):
			res.Wide += weights[i]
		}
	}

	em := emitters.Get().(*emitter)
	em.reset(opt, weights, minCount)
	// The alnum pass runs first: it is cheap and yields the most
	// general candidates, so if MaxPatterns caps the enumeration the
	// safest (most general) patterns are the ones retained.
	if opt.IncludeAlnumPass {
		em.enumeratePass(merged, true)
	}
	em.enumeratePass(fine, false)
	res.Candidates = em.finish()
	res.Capped = em.capped
	em.release()
	return res
}

// fits reports whether runs are within the τ cap.
func fits(opt EnumOptions, runs []tokens.Run) bool {
	return opt.MaxTokens <= 0 || len(runs) <= opt.MaxTokens
}

// HypothesisSpace returns H(C) = ∩_v P(v) \ ".*" for a homogeneous query
// column (paper §2.1): every candidate must match all values.
func HypothesisSpace(values []string, opt EnumOptions) EnumResult {
	opt.MinSupport = 1.0
	return Enumerate(values, opt)
}

// Dedupe returns the distinct values in order of first occurrence and how
// often each occurs. maxValues > 0 caps the distinct values kept: a value
// first met beyond the cap is dropped with all its occurrences, so the
// weights then sum to less than len(values).
func Dedupe(values []string, maxValues int) (uniq []string, weights []int) {
	idx := make(map[string]int, len(values))
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
	return &emitter{groupOf: map[string]int{}, byKey: map[string]int{}}
}}

// The pooled maps are emptied for reuse by deleting the keys the last
// call put there: clear would cost time in proportion to a map's
// capacity, which never shrinks, on every call however few keys it
// made. A pass with more shapes than maxRetainedShapes drops the shape
// map, and a call with more candidates than maxRetainedKeys — more than
// the default MaxPatterns allows — drops its candidate scratch, so a
// pooled emitter stays bounded.
const (
	maxRetainedShapes = 64
	maxRetainedKeys   = 1 << 16
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
type option struct {
	tok  Tok
	bs   bitset
	text []byte
}

// weighed is a key at one position — a run's text or its length — with
// the total weight of the members whose run has it.
type weighed[K comparable] struct {
	key K
	w   int
}

// emitter is one enumeration's working state. Everything in it is
// scratch reused by the next call, except what finish copies out.
type emitter struct {
	opt      EnumOptions
	weights  []int
	minCount int
	words    int
	capped   bool

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

	// Candidates found so far: candidate i has key keys[i], tokens
	// tokBuf[tokEnd[i-1]:tokEnd[i]] and matches the values in
	// cbits[i*words:(i+1)*words].
	byKey  map[string]int
	keys   []string
	tokBuf []Tok
	tokEnd []int
	cbits  []uint64
}

func (em *emitter) reset(opt EnumOptions, weights []int, minCount int) {
	em.opt, em.weights, em.minCount = opt, weights, minCount
	em.words = (len(weights) + 63) / 64
	em.capped = false
	em.keys, em.tokBuf, em.tokEnd, em.cbits = em.keys[:0], em.tokBuf[:0], em.tokEnd[:0], em.cbits[:0]
}

// release returns em to the pool without the caller's weights or the
// candidate keys, which belong to the result.
func (em *emitter) release() {
	em.weights = nil
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
	return em.opt.MaxPatterns > 0 && len(em.keys) >= em.opt.MaxPatterns
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
		if len(runs) == 0 || !fits(em.opt, runs) {
			em.gid = append(em.gid, -1)
			continue
		}
		em.shape = appendClassShape(em.shape[:0], runs)
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

// appendClassShape appends the bytes of tokens.ClassShape(runs) to b.
func appendClassShape(b []byte, runs []tokens.Run) []byte {
	for _, r := range runs {
		switch r.Class {
		case tokens.ClassDigit:
			b = append(b, 'd')
		case tokens.ClassLetter:
			b = append(b, 'l')
		case tokens.ClassAlnum:
			b = append(b, 'a')
		case tokens.ClassSpace:
			b = append(b, '_')
		default:
			b = append(b, 's')
		}
	}
	return b
}

// emit records the pattern toks, whose canonical key dfs has assembled
// in em.key, as matching the values in bs.
func (em *emitter) emit(toks []Tok, bs bitset) {
	if i, ok := em.byKey[string(em.key)]; ok {
		bitset(em.cbits[i*em.words : (i+1)*em.words]).or(bs)
		return
	}
	if (Pattern{Toks: toks}).IsTrivial() {
		return
	}
	if em.full() {
		em.capped = true
		return
	}
	key := string(em.key)
	em.byKey[key] = len(em.keys)
	em.keys = append(em.keys, key)
	em.tokBuf = append(em.tokBuf, toks...)
	em.tokEnd = append(em.tokEnd, len(em.tokBuf))
	em.cbits = append(em.cbits, bs...)
}

// finish copies the candidates out of the scratch, every candidate's
// tokens carved from one new block, and orders them by descending
// support, then key.
func (em *emitter) finish() []Candidate {
	if len(em.keys) == 0 {
		return nil
	}
	block := slices.Clone(em.tokBuf)
	out := make([]Candidate, len(em.keys))
	lo := 0
	for i, key := range em.keys {
		hi := em.tokEnd[i]
		out[i] = Candidate{
			Pattern: Pattern{Toks: block[lo:hi:hi]},
			Key:     key,
			Matched: bitset(em.cbits[i*em.words : (i+1)*em.words]).weightedCount(em.weights),
		}
		lo = hi
	}
	slices.SortFunc(out, func(a, b Candidate) int {
		if a.Matched != b.Matched {
			return b.Matched - a.Matched
		}
		return strings.Compare(a.Key, b.Key)
	})
	return out
}

// enumerateGroup explores the cross-product of per-position options for
// one shape group, pruning on weighted support.
func (em *emitter) enumerateGroup(members []int, groupWeight int, runsOf [][]tokens.Run, alnumPass bool) {
	if groupWeight < em.minCount {
		return // the whole group cannot reach the support threshold
	}
	if em.full() {
		em.capped = true // every pattern of this group is dropped
		return
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
	em.toks = slices.Grow(em.toks[:0], npos)[:npos]
	em.key = em.key[:0]
	em.dfs(0, npos)
}

func (em *emitter) dfs(pos, npos int) {
	if em.full() {
		em.capped = true
		return
	}
	if pos == npos {
		em.emit(em.toks, em.acc[pos])
		return
	}
	keyLen := len(em.key)
	lo := 0
	if pos > 0 {
		lo = em.ends[pos-1]
	}
	for _, o := range em.opts[lo:em.ends[pos]] {
		em.acc[pos+1].andInto(em.acc[pos], o.bs)
		if em.acc[pos+1].weightedCount(em.weights) < em.minCount {
			continue
		}
		em.toks[pos] = o.tok
		em.key = append(em.key[:keyLen], o.text...)
		em.dfs(pos+1, npos)
	}
}

// addOption appends the option t to em.opts and returns its bitset, empty
// for the caller to fill.
func (em *emitter) addOption(t Tok) bitset {
	lo := len(em.text)
	em.text = t.appendTo(em.text)
	bs := em.newBits()
	em.opts = append(em.opts, option{tok: t, bs: bs, text: em.text[lo:len(em.text):len(em.text)]})
	return bs
}

// addAll adds the option t, matching every member.
func (em *emitter) addAll(t Tok, members []int) {
	bs := em.addOption(t)
	for _, i := range members {
		bs.set(i)
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
			bs := em.addOption(Lit(c.key))
			for _, i := range members {
				if runsOf[i][pos].Text == c.key {
					bs.set(i)
				}
			}
		}
	}

	// Options are ordered most-general-first so that when MaxPatterns
	// caps the depth-first exploration, the safest generalizations are
	// the ones already emitted.
	switch class {
	case tokens.ClassDigit:
		em.addAll(Num(), members)
		em.addAll(ClassPlus(class), members)
		em.addWidths(class, members, runsOf, pos, groupWeight)
		addConsts()
	case tokens.ClassLetter:
		em.addAll(ClassPlus(class), members)
		em.addWidths(class, members, runsOf, pos, groupWeight)
		addConsts()
	case tokens.ClassAlnum:
		em.addAll(ClassPlus(class), members)
		em.addWidths(class, members, runsOf, pos, groupWeight)
	case tokens.ClassSymbol:
		// Symbol runs are single characters; offer the class token when
		// identities differ, and constants always (both passes keep
		// punctuation identity).
		if mixed {
			em.addAll(ClassN(class, 1), members)
		}
		addConsts()
	case tokens.ClassSpace:
		em.addAll(ClassPlus(class), members)
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
		bs := em.addOption(ClassN(class, l.key))
		for _, i := range members {
			if len(runsOf[i][pos].Text) == l.key {
				bs.set(i)
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
