package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"testing"

	"autovalidate/internal/corpus"
	"autovalidate/internal/datagen"
	"autovalidate/internal/index"
	"autovalidate/internal/pattern"
	"autovalidate/internal/tokens"
)

// collectLeaf is the leaf as it was before it scored position summaries:
// the segment's texts, weight-fold, enumerated at full support and
// scored by selectBest at θ = 0, whose enumeration is a leaf's
// (leafEnum). It returns the leaf's answer and Enumerate's candidates.
func collectLeaf(sub []string, idx *index.Index, opt Options, enum pattern.EnumOptions) (leafResult, []pattern.Candidate) {
	cands := pattern.Enumerate(sub, enum)
	best, _, err := selectBest(sub, idx, opt, 0)
	if err != nil {
		return leafResult{}, cands.Candidates
	}
	return leafResult{ok: true, fpr: best.fpr, pat: best.pat}, cands.Candidates
}

// checkLeafScores infers values under both tokenizations and, over every
// segment of each alignment a leaf would enumerate, holds the leaf's
// scorer to collectLeaf: the same answer, the same moves of the
// candidate and index-hit counters, and a winner that holds checkBand. The leaf visits no key twice, which the enumerator
// leaves to the summaries: a merged one with no <alnum> position must
// equal the fine one. It returns how many segments had a winner.
func checkLeafScores(t *testing.T, idx *index.Index, values []string, opt Options) (won int) {
	t.Helper()
	dp := newSegmentDP(NewMemo(idx, opt), values)
	enum := dp.leafEnum()
	var seg string
	visited := map[string]bool{}
	visitOnce := func(key string, toks []pattern.Tok) {
		if visited[key] {
			t.Fatalf("%s: key %q visited twice", seg, key)
		}
		visited[key] = true
		dp.score(key, toks)
	}
	for _, merge := range []bool{false, true} {
		dp.ncols = 0
		dp.infer(opt.Theta, merge)
		for s := 0; s < dp.ncols; s++ {
			for e := s; e < dp.ncols && e-s+1 <= opt.Tau; e++ {
				sub, _, seq := segmentTexts(dp, s, e)
				if len(sub) == 0 {
					continue
				}
				seg = fmt.Sprintf("merge=%v [%d,%d] %s", merge, s, e, seq)
				dp.summarize(s, e)
				merged, fine := dp.merged.positions(), dp.fine.positions()
				noAlnum := !slices.ContainsFunc(merged, func(p pattern.Position) bool { return p.Class == tokens.ClassAlnum })
				if len(merged) > 0 && noAlnum && !slices.Equal(merged, fine) {
					t.Fatalf("%s: merged summary %v has no <alnum> position but differs from the fine one %v", seg, merged, fine)
				}
				clear(visited)
				dp.visit = visitOnce
				c0 := ReadCounters()
				got := dp.best()
				c1 := ReadCounters()
				dp.visit = dp.score
				want, cands := collectLeaf(sub, idx, opt, enum)
				c2 := ReadCounters()
				if got.ok != want.ok || got.fpr != want.fpr || !got.pat.Equal(want.pat) {
					t.Fatalf("%s: leaf = (%v, %v, %q), collect-then-select = (%v, %v, %q)",
						seg, got.ok, got.fpr, got.pat, want.ok, want.fpr, want.pat)
				}
				if c1.Candidates-c0.Candidates != c2.Candidates-c1.Candidates || c1.IndexHits-c0.IndexHits != c2.IndexHits-c1.IndexHits {
					t.Fatalf("%s: leaf counted %d candidates and %d index hits, collect-then-select %d and %d", seg,
						c1.Candidates-c0.Candidates, c1.IndexHits-c0.IndexHits, c2.Candidates-c1.Candidates, c2.IndexHits-c1.IndexHits)
				}
				if !got.ok {
					continue
				}
				won++
				checkBand(t, seg, idx, opt, scoredAt(idx, got.pat, len(sub)), cands)
			}
		}
	}
	return won
}

// checkBand holds the winner w to the band rule over the candidates'
// feasible hits: under MinFPR its FPR is within fprEpsilon of the least
// feasible FPR, and no feasible hit within fprEpsilon of that least FPR —
// any feasible hit, under MinCoverage — is ahead of it. A hit just
// outside the band may still beat w pairwise under better.
func checkBand(t *testing.T, name string, idx *index.Index, opt Options, w scored, cands []pattern.Candidate) {
	t.Helper()
	var hits []scored
	for _, c := range cands {
		if e, ok := idx.Lookup(c.Key); ok && e.FPR() <= opt.R && int(e.Cov) >= opt.M {
			hits = append(hits, scoredAt(idx, c.Pattern, c.Matched))
		}
	}
	least := slices.MinFunc(hits, func(a, b scored) int { return cmp.Compare(a.fpr, b.fpr) }).fpr
	unbanded := opt.Objective == MinCoverage
	if !unbanded && w.fpr > least+fprEpsilon {
		t.Fatalf("%s: the winner %q has FPR %v, more than fprEpsilon above the least feasible FPR %v", name, w.key, w.fpr, least)
	}
	for _, h := range hits {
		if (unbanded || h.fpr <= least+fprEpsilon) && ahead(opt.Objective, &h, &w) {
			t.Fatalf("%s: feasible %q (FPR %v) in the band is ahead of the winner %q (FPR %v)", name, h.key, h.fpr, w.key, w.fpr)
		}
	}
}

// scoredAt scores p against the index as matching matched values.
func scoredAt(idx *index.Index, p pattern.Pattern, matched int) scored {
	e, _ := idx.LookupPattern(p)
	return scored{pat: p, key: p.Key(), fpr: e.FPR(), cov: e.Cov, matched: matched}
}

// The leaf that scores a segment's position summaries picks what
// selectBest, scoring the segment's texts as Visit hands them over, picks,
// and counts the same candidates and index hits, over every segment of the
// oracle test's generator domains, the hand cases and the infer_ingest
// columns — under both tokenizations, the default constraints, loose
// ones, a binding distinct-value cap and the coverage objective.
func TestLeafScoreAgreesWithSelectBest(t *testing.T) {
	idx := testIndex(t)
	columns := handCases()
	var domains []datagen.Domain
	domains = append(domains, datagen.EnterpriseDomains()...)
	domains = append(domains, datagen.GovernmentDomains()...)
	domains = append(domains, datagen.NLDomains()...)
	for _, d := range domains {
		columns[d.Name] = fresh(t, d.Name, 60, 300)
	}
	for _, domain := range inferIngestDomains {
		columns["ingest/"+domain] = fresh(t, domain, 100, 7)
	}
	variants := []struct {
		name string
		edit func(*Options)
	}{
		{"default", func(*Options) {}},
		{"loose", func(o *Options) { o.R, o.M = 1, 1 }},
		{"fiveValues", func(o *Options) { o.R, o.M, o.Enum.MaxValues = 1, 1, 5 }},
		{"cmdv", func(o *Options) { o.Objective = MinCoverage }},
	}
	won := 0
	for name, values := range columns {
		for _, v := range variants {
			t.Run(name+"/"+v.name, func(t *testing.T) {
				opt := testOptions(FMDVVH)
				v.edit(&opt)
				won += checkLeafScores(t, idx, values, opt)
			})
		}
	}
	if won == 0 {
		t.Error("no segment had a feasible winner")
	}
}

// FuzzLeafScoreAgree holds the leaf's scorer to collect-then-select on
// arbitrary newline-separated columns, τ, distinct-value caps, loose
// constraints, horizontal cuts and alignment caps, with and without the
// alnum pass.
func FuzzLeafScoreAgree(f *testing.F) {
	f.Add("9:07\n9:07 PM\n10:15\n10:15 AM\n9:07", byte(5), byte(2))
	f.Add("a1b2-7\nab12-8\n\n12ab-9\na1b2-7", byte(3), byte(2|4|2<<5))
	f.Add("[1|2/3]\n[4|5]\n[6|7/8]\n[1|2/3]", byte(2), byte(2))
	f.Add("0a1b2c3d-0a1b\nffff0000-abcd\n12345678-9abc\nNULL", byte(4), byte(8))
	f.Add("número1-ß\nnúmero2-ß\n\xff9-x\n", byte(1), byte(1|2))
	f.Add("1.2.3\n1..3\n4.5.6\n\n7..9", byte(0), byte(16))
	f.Add("2020-01-02\n2020-11-12\n2021-03-04\n2020-01-02", byte(5), byte(0))
	for _, c := range groupFoldCases {
		f.Add(strings.Join(c, "\n"), byte(4), byte(2))
	}
	f.Fuzz(func(t *testing.T, column string, tau, knobs byte) {
		if len(column) > 300 {
			return
		}
		opt := testOptions(FMDVV)
		if knobs&8 != 0 {
			opt = testOptions(FMDVVH)
			opt.Theta = 0.5
		}
		// The collecting enumeration is exponential in τ; the property
		// test covers the default.
		opt.Tau = 1 + int(tau%6)
		if knobs&1 != 0 {
			opt.Enum.IncludeAlnumPass = false
		}
		if knobs&2 != 0 {
			opt.R, opt.M = 1, 1 // whatever the index has seen once is feasible
		}
		if knobs&4 != 0 {
			opt.Enum.MaxValues = 1 + int(knobs>>5)
		}
		if knobs&16 != 0 {
			opt.MaxAlignCols = 4
		}
		checkLeafScores(t, testIndex(t), strings.Split(column, "\n"), opt)
	})
}

// better is not transitive: FPRs within fprEpsilon tie, so three hits can
// each beat the next and the last beat the first. Two corpus columns of
// "a1" give <alnum>+ (generality 4) FPR 0, <alnum>{2} (2) FPR 0.0015 and
// the constant a1 (0) FPR 0.003: the constant beats <alnum>{2} and
// <alnum>{2} beats <alnum>+ on generality within the tie, and <alnum>+
// beats the constant on FPR. Reduced with better, each order of the three
// can pick a different one. choose, and selectBest's scratch fed the hits
// in any order, pick from the set:
// the constant is outside the band of the least FPR, and <alnum>{2} is
// the more specific of the two inside it, whatever the order.
func TestSelectionIsOrderFree(t *testing.T) {
	column := func(odd string) *corpus.Column {
		values := slices.Repeat([]string{"a1"}, 997)
		return &corpus.Column{Values: append(values, odd, odd, odd)}
	}
	idx := index.Build([]*corpus.Column{column("ab12"), column("b2")}, index.DefaultBuildOptions())
	opt := testOptions(FMDVV)
	opt.R, opt.M = 1, 1
	cycle := []struct {
		pat pattern.Pattern
		fpr float64
	}{
		{pattern.New(pattern.ClassPlus(tokens.ClassAlnum)), 0},
		{pattern.New(pattern.ClassN(tokens.ClassAlnum, 2)), 0.0015},
		{pattern.New(pattern.Lit("a"), pattern.Lit("1")), 0.003},
	}
	var hits []scored
	var cands []pattern.Candidate
	for _, c := range cycle {
		s := scoredAt(idx, c.pat, 1000)
		if s.fpr != c.fpr || s.cov != 2 {
			t.Fatalf("%q has FPR %v over %d columns, want %v over 2", s.key, s.fpr, s.cov, c.fpr)
		}
		s.matched = 0 // as the leaf's scorer leaves it
		hits = append(hits, s)
		cands = append(cands, pattern.Candidate{Pattern: c.pat, Key: s.key, Matched: 1000})
	}
	for i := range hits {
		if j := (i + 1) % len(hits); !better(opt.Objective, &hits[j], &hits[i]) {
			t.Fatalf("%q is not better than %q: no cycle", hits[j].key, hits[i].key)
		}
	}
	want := hits[1]
	naive := map[string]bool{}
	for _, perm := range [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		order := make([]scored, len(perm))
		orderCands := make([]pattern.Candidate, len(perm))
		for i, k := range perm {
			order[i], orderCands[i] = hits[k], cands[k]
		}
		best := order[0] // reduced with better in this order
		for i := range order[1:] {
			if better(opt.Objective, &order[i+1], &best) {
				best = order[i+1]
			}
		}
		naive[best.key] = true
		if got := order[choose(order, opt.Objective)]; got.key != want.key || got.fpr != want.fpr {
			t.Errorf("order %v: choose picks %q at FPR %v, want %q at %v", perm, got.key, got.fpr, want.key, want.fpr)
		}
		// selectBest's scratch, handed the hits in this order.
		hs := hitScratches.Get().(*hitScratch)
		for _, c := range orderCands {
			e, _ := idx.Lookup(c.Key)
			hs.keep(opt, scored{key: c.Key, fpr: e.FPR(), cov: e.Cov, matched: c.Matched}, c.Pattern.Toks)
		}
		got, ok := hs.pick(opt.Objective)
		hs.release()
		if !ok {
			t.Fatalf("order %v: selectBest's scratch kept no hit", perm)
		}
		if got.key != want.key || got.fpr != want.fpr {
			t.Errorf("order %v: selectBest picks %q at FPR %v, want %q at %v", perm, got.key, got.fpr, want.key, want.fpr)
		}
		checkBand(t, fmt.Sprintf("order %v", perm), idx, opt, got, orderCands)
	}
	if len(naive) < 2 {
		t.Errorf("reducing with better in every order picked only %v; the orders should disagree", naive)
	}
}
