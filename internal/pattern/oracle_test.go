package pattern

import (
	"math"
	"sort"

	"autovalidate/internal/tokens"
)

// oracleEnumerate is the enumeration this package shipped before keys
// were rendered once: it renders a pattern's key wherever it needs one —
// once per DFS leaf to de-duplicate, and again for the result. It is kept
// as the slow obvious reference Enumerate is compared against; it stores
// Candidate.Key, so the two agree on every field, and like Enumerate it
// leaves the candidates in the order the search met them.
func oracleEnumerate(values []string, opt EnumOptions) EnumResult {
	var res EnumResult
	if len(values) == 0 {
		return res
	}
	uniq, weights := oracleDedupe(values, opt.MaxValues)
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
	runsOf := make([][]tokens.Run, len(uniq))
	mergedOf := make([][]tokens.Run, len(uniq))
	for i, v := range uniq {
		if v == "" {
			continue
		}
		runs := tokens.Lex(v)
		merged := tokens.MergeAlnum(nil, v, runs)
		fineOK := opt.MaxTokens <= 0 || len(runs) <= opt.MaxTokens
		alnumOK := opt.IncludeAlnumPass && (opt.MaxTokens <= 0 || len(merged) <= opt.MaxTokens)
		if !fineOK && !alnumOK {
			res.Wide += weights[i]
			continue
		}
		if fineOK {
			runsOf[i] = runs
			fineGroups[tokens.ClassShape(runs)] = append(fineGroups[tokens.ClassShape(runs)], i)
		}
		if alnumOK {
			mergedOf[i] = merged
			key := "a:" + tokens.ClassShape(merged)
			alnumGroups[key] = append(alnumGroups[key], i)
		}
	}

	em := &oracleEmitter{
		opt:      opt,
		weights:  weights,
		minCount: minCount,
		byKey:    map[string]int{},
		words:    (len(uniq) + 63) / 64,
	}
	// The alnum pass runs first: it is cheap and yields the most
	// general candidates, so if MaxPatterns caps the enumeration the
	// safest (most general) patterns are the ones retained.
	for _, key := range oracleKeysByWeight(alnumGroups, weights) {
		em.enumerateGroup(alnumGroups[key], mergedOf, true)
	}
	for _, key := range oracleKeysByWeight(fineGroups, weights) {
		em.enumerateGroup(fineGroups[key], runsOf, false)
	}

	res.Candidates = em.finish()
	return res
}

func oracleDedupe(values []string, maxValues int) ([]string, []int) {
	idx := make(map[string]int, len(values))
	var uniq []string
	var weights []int
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
func oracleKeysByWeight(m map[string][]int, weights []int) []string {
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

// oracleOption is one generalization choice at an aligned position together
// with the set of group members it matches.
type oracleOption struct {
	tok Tok
	bs  bitset
}

// oracleEmitter accumulates deduplicated candidates across shape groups.
type oracleEmitter struct {
	opt      EnumOptions
	weights  []int
	minCount int
	words    int

	byKey map[string]int
	pats  []Pattern
	bsets []bitset
}

func (em *oracleEmitter) full() bool {
	return em.opt.MaxPatterns > 0 && len(em.pats) >= em.opt.MaxPatterns
}

func (em *oracleEmitter) emit(toks []Tok, bs bitset) {
	p := Pattern{Toks: append([]Tok(nil), toks...)}
	if p.IsTrivial() {
		return
	}
	key := p.Key()
	if i, ok := em.byKey[key]; ok {
		for w := range bs {
			em.bsets[i][w] |= bs[w]
		}
		return
	}
	if em.full() {
		return
	}
	em.byKey[key] = len(em.pats)
	em.pats = append(em.pats, p)
	cp := newBitset(em.words)
	copy(cp, bs)
	em.bsets = append(em.bsets, cp)
}

func (em *oracleEmitter) finish() []Candidate {
	out := make([]Candidate, len(em.pats))
	for i := range em.pats {
		out[i] = Candidate{Pattern: em.pats[i], Key: em.pats[i].Key(), Matched: em.bsets[i].weightedCount(em.weights)}
	}
	return out
}

// enumerateGroup explores the cross-product of per-position options for
// one shape group, pruning on weighted support.
func (em *oracleEmitter) enumerateGroup(members []int, runsOf [][]tokens.Run, alnumPass bool) {
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
	npos := len(runsOf[members[0]])
	if npos == 0 {
		return
	}
	opts := make([][]oracleOption, npos)
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
	em.dfs(0, npos, opts, acc, toks)
}

func (em *oracleEmitter) dfs(pos, npos int, opts [][]oracleOption, acc []bitset, toks []Tok) {
	if em.full() {
		return
	}
	if pos == npos {
		em.emit(toks, acc[pos])
		return
	}
	for _, o := range opts[pos] {
		acc[pos+1].andInto(acc[pos], o.bs)
		if acc[pos+1].weightedCount(em.weights) < em.minCount {
			continue
		}
		toks[pos] = o.tok
		em.dfs(pos+1, npos, opts, acc, toks)
	}
}

// positionOptions computes the generalization choices at one aligned
// position: constants (support-gated), fixed widths, the unbounded class,
// and <num> for digit runs — the drill-down step of Algorithm 1.
func (em *oracleEmitter) positionOptions(members []int, runsOf [][]tokens.Run, pos, groupWeight int, alnumPass bool) []oracleOption {
	class := runsOf[members[0]][pos].Class
	textW := map[string]int{}
	lenW := map[int]int{}
	for _, i := range members {
		r := runsOf[i][pos]
		textW[r.Text] += em.weights[i]
		lenW[len(r.Text)] += em.weights[i]
	}

	var out []oracleOption
	add := func(t Tok, pred func(text string) bool) {
		bs := newBitset(em.words)
		for _, i := range members {
			if pred(runsOf[i][pos].Text) {
				bs.set(i)
			}
		}
		out = append(out, oracleOption{tok: t, bs: bs})
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
