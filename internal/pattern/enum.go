package pattern

import (
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"

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
func EnumerateLexed(weights []int, fine, merged [][]tokens.Run, opt EnumOptions) EnumResult {
	var res EnumResult
	for _, w := range weights {
		res.Total += w
	}
	minCount := int(math.Ceil(opt.MinSupport * float64(res.Total)))
	if minCount < 1 {
		minCount = 1
	}

	// Partition values into shape groups, excluding empty ones. The τ
	// cap applies per tokenization: a value too wide under the fine
	// lexer may still be narrow once adjacent alphanumeric runs merge
	// (e.g. random alphanumeric identifiers), so it participates in
	// the alnum pass only. Values wide under every tokenization are
	// skipped entirely — the columns vertical cuts compensate for.
	fineGroups := map[string][]int{}
	alnumGroups := map[string][]int{}
	for i, runs := range fine {
		if len(runs) == 0 {
			res.Empty += weights[i]
			continue
		}
		fineOK := opt.MaxTokens <= 0 || len(runs) <= opt.MaxTokens
		alnumOK := opt.IncludeAlnumPass && (opt.MaxTokens <= 0 || len(merged[i]) <= opt.MaxTokens)
		if !fineOK && !alnumOK {
			res.Wide += weights[i]
			continue
		}
		if fineOK {
			key := tokens.ClassShape(runs)
			fineGroups[key] = append(fineGroups[key], i)
		}
		if alnumOK {
			key := "a:" + tokens.ClassShape(merged[i])
			alnumGroups[key] = append(alnumGroups[key], i)
		}
	}

	em := &emitter{
		opt:      opt,
		weights:  weights,
		minCount: minCount,
		byKey:    map[string]int{},
		words:    (len(weights) + 63) / 64,
	}
	// The alnum pass runs first: it is cheap and yields the most
	// general candidates, so if MaxPatterns caps the enumeration the
	// safest (most general) patterns are the ones retained.
	for _, key := range keysByWeight(alnumGroups, weights) {
		em.enumerateGroup(alnumGroups[key], merged, true)
	}
	for _, key := range keysByWeight(fineGroups, weights) {
		em.enumerateGroup(fineGroups[key], fine, false)
	}

	res.Candidates = em.finish()
	res.Capped = em.capped
	return res
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

// keysByWeight orders shape-group keys by descending total member weight
// (largest groups first), so pattern caps favour well-supported shapes.
func keysByWeight(m map[string][]int, weights []int) []string {
	keys := make([]string, 0, len(m))
	wt := make(map[string]int, len(m))
	for k, members := range m {
		keys = append(keys, k)
		for _, i := range members {
			wt[k] += weights[i]
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if wt[keys[i]] != wt[keys[j]] {
			return wt[keys[i]] > wt[keys[j]]
		}
		return keys[i] < keys[j]
	})
	return keys
}

// option is one generalization choice at an aligned position together
// with the set of group members it matches and its rendered key text.
type option struct {
	tok  Tok
	bs   bitset
	text string
}

// emitter accumulates deduplicated candidates across shape groups.
type emitter struct {
	opt      EnumOptions
	weights  []int
	minCount int
	words    int

	byKey  map[string]int
	cands  []Candidate
	bsets  []bitset
	capped bool

	// key is the canonical key of the tokens dfs has chosen so far,
	// grown and cut back as it descends and returns.
	key []byte
}

func (em *emitter) full() bool {
	return em.opt.MaxPatterns > 0 && len(em.cands) >= em.opt.MaxPatterns
}

// emit records the pattern toks, whose canonical key dfs has assembled
// in em.key, as matching the values in bs.
func (em *emitter) emit(toks []Tok, bs bitset) {
	if i, ok := em.byKey[string(em.key)]; ok {
		em.bsets[i].or(bs)
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
	em.byKey[key] = len(em.cands)
	em.cands = append(em.cands, Candidate{Pattern: Pattern{Toks: slices.Clone(toks)}, Key: key})
	em.bsets = append(em.bsets, slices.Clone(bs))
}

func (em *emitter) finish() []Candidate {
	for i := range em.cands {
		em.cands[i].Matched = em.bsets[i].weightedCount(em.weights)
	}
	slices.SortFunc(em.cands, func(a, b Candidate) int {
		if a.Matched != b.Matched {
			return b.Matched - a.Matched
		}
		return strings.Compare(a.Key, b.Key)
	})
	return em.cands
}

// enumerateGroup explores the cross-product of per-position options for
// one shape group, pruning on weighted support.
func (em *emitter) enumerateGroup(members []int, runsOf [][]tokens.Run, alnumPass bool) {
	if len(members) == 0 {
		return
	}
	groupWeight := 0
	for _, i := range members {
		groupWeight += em.weights[i]
	}
	if groupWeight < em.minCount {
		return // the whole group cannot reach the support threshold
	}
	if em.full() {
		em.capped = true // every pattern of this group is dropped
		return
	}
	npos := len(runsOf[members[0]])
	if npos == 0 {
		return
	}
	opts := make([][]option, npos)
	for pos := 0; pos < npos; pos++ {
		opts[pos] = em.positionOptions(members, runsOf, pos, groupWeight, alnumPass)
		if len(opts[pos]) == 0 {
			return
		}
	}

	groupBS := newBitset(em.words)
	for _, i := range members {
		groupBS.set(i)
	}
	acc := make([]bitset, npos+1)
	acc[0] = groupBS
	for i := 1; i <= npos; i++ {
		acc[i] = newBitset(em.words)
	}
	toks := make([]Tok, npos)
	em.key = em.key[:0]
	em.dfs(0, npos, opts, acc, toks)
}

func (em *emitter) dfs(pos, npos int, opts [][]option, acc []bitset, toks []Tok) {
	if em.full() {
		em.capped = true
		return
	}
	if pos == npos {
		em.emit(toks, acc[pos])
		return
	}
	keyLen := len(em.key)
	for _, o := range opts[pos] {
		acc[pos+1].andInto(acc[pos], o.bs)
		if acc[pos+1].weightedCount(em.weights) < em.minCount {
			continue
		}
		toks[pos] = o.tok
		em.key = append(em.key[:keyLen], o.text...)
		em.dfs(pos+1, npos, opts, acc, toks)
	}
}

// positionOptions computes the generalization choices at one aligned
// position: constants (support-gated), fixed widths, the unbounded class,
// and <num> for digit runs — the drill-down step of Algorithm 1.
func (em *emitter) positionOptions(members []int, runsOf [][]tokens.Run, pos, groupWeight int, alnumPass bool) []option {
	class := runsOf[members[0]][pos].Class
	textW := map[string]int{}
	lenW := map[int]int{}
	for _, i := range members {
		r := runsOf[i][pos]
		textW[r.Text] += em.weights[i]
		lenW[len(r.Text)] += em.weights[i]
	}

	var out []option
	add := func(t Tok, pred func(text string) bool) {
		bs := newBitset(em.words)
		for _, i := range members {
			if pred(runsOf[i][pos].Text) {
				bs.set(i)
			}
		}
		out = append(out, option{tok: t, bs: bs, text: t.String()})
	}

	// Constants, most frequent first, gated by MinConstSupport.
	minConst := int(math.Ceil(em.opt.MinConstSupport * float64(groupWeight)))
	if minConst < 1 {
		minConst = 1
	}
	consts := make([]string, 0, len(textW))
	for t, w := range textW {
		if w >= minConst && w >= em.minCount {
			consts = append(consts, t)
		}
	}
	sort.Slice(consts, func(i, j int) bool {
		if textW[consts[i]] != textW[consts[j]] {
			return textW[consts[i]] > textW[consts[j]]
		}
		return consts[i] < consts[j]
	})
	if em.opt.MaxConstsPerPos > 0 && len(consts) > em.opt.MaxConstsPerPos {
		consts = consts[:em.opt.MaxConstsPerPos]
	}
	addConsts := func() {
		for _, c := range consts {
			c := c
			add(Lit(c), func(text string) bool { return text == c })
		}
	}

	// Fixed widths <class>{k}, most frequent lengths first.
	lens := make([]int, 0, len(lenW))
	for l, w := range lenW {
		if w >= em.minCount {
			lens = append(lens, l)
		}
	}
	sort.Slice(lens, func(i, j int) bool {
		if lenW[lens[i]] != lenW[lens[j]] {
			return lenW[lens[i]] > lenW[lens[j]]
		}
		return lens[i] < lens[j]
	})
	if em.opt.MaxLengthsPerPos > 0 && len(lens) > em.opt.MaxLengthsPerPos {
		lens = lens[:em.opt.MaxLengthsPerPos]
	}

	// Options are ordered most-general-first so that when MaxPatterns
	// caps the depth-first exploration, the safest generalizations are
	// the ones already emitted.
	switch class {
	case tokens.ClassDigit:
		add(Num(), func(string) bool { return true })
		add(ClassPlus(tokens.ClassDigit), func(string) bool { return true })
		for _, l := range lens {
			l := l
			add(ClassN(tokens.ClassDigit, l), func(text string) bool { return len(text) == l })
		}
		if !alnumPass {
			addConsts()
		}
	case tokens.ClassLetter:
		add(ClassPlus(tokens.ClassLetter), func(string) bool { return true })
		for _, l := range lens {
			l := l
			add(ClassN(tokens.ClassLetter, l), func(text string) bool { return len(text) == l })
		}
		if !alnumPass {
			addConsts()
		}
	case tokens.ClassAlnum:
		add(ClassPlus(tokens.ClassAlnum), func(string) bool { return true })
		for _, l := range lens {
			l := l
			add(ClassN(tokens.ClassAlnum, l), func(text string) bool { return len(text) == l })
		}
	case tokens.ClassSymbol:
		// Symbol runs are single characters; offer the class token when
		// identities differ, and constants always (both passes keep
		// punctuation identity).
		if len(textW) > 1 {
			add(ClassN(tokens.ClassSymbol, 1), func(string) bool { return true })
		}
		addConsts()
	case tokens.ClassSpace:
		add(ClassPlus(tokens.ClassSpace), func(string) bool { return true })
		addConsts()
	}
	return out
}

// bitset is a fixed-width bit vector over value indexes.
type bitset []uint64

func newBitset(words int) bitset { return make(bitset, words) }

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
