package pattern

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"autovalidate/internal/tokens"
)

func keys(res EnumResult) map[string]int {
	m := make(map[string]int, len(res.Candidates))
	for _, c := range res.Candidates {
		m[c.Pattern.Key()] = c.Matched
	}
	return m
}

func TestHypothesisSpaceDateColumn(t *testing.T) {
	// C1 from Figure 2(a).
	col := []string{
		"Mar 01 2019", "Mar 02 2019", "Mar 03 2019", "Mar 04 2019", "Mar 05 2019",
		"Mar 06 2019", "Mar 07 2019", "Mar 08 2019", "Mar 09 2019", "Mar 10 2019",
		"Mar 11 2019", "Mar 12 2019", "Mar 13 2019", "Mar 14 2019", "Mar 15 2019",
	}
	res := HypothesisSpace(col, DefaultEnumOptions())
	got := keys(res)
	// The ideal validation pattern must be in H(C).
	for _, want := range []string{
		"<letter>{3} <digit>{2} <digit>{4}",
		"Mar <digit>{2} 2019",
		"<letter>+ <digit>+ <digit>+",
	} {
		if _, ok := got[want]; !ok {
			t.Errorf("H(C) missing %q; have %d candidates", want, len(got))
		}
	}
	// Every candidate must match all values (intersection semantics).
	for _, c := range res.Candidates {
		if c.Matched != len(col) {
			t.Errorf("candidate %s matches %d/%d values", c.Pattern, c.Matched, len(col))
		}
		for _, v := range col {
			if !c.Pattern.Match(v) {
				t.Errorf("candidate %s in H(C) fails to match %q", c.Pattern, v)
			}
		}
	}
	// The overly specific day constant must not survive: "01" appears once.
	if _, ok := got["Mar 01 2019"]; ok {
		t.Error("H(C) contains a constant pattern that only matches one value")
	}
}

func TestHypothesisSpaceExcludesTrivial(t *testing.T) {
	res := HypothesisSpace([]string{"a1", "b2", "c3"}, DefaultEnumOptions())
	for _, c := range res.Candidates {
		if c.Pattern.IsTrivial() {
			t.Fatalf("H(C) contains the trivial pattern")
		}
	}
	if len(res.Candidates) == 0 {
		t.Fatal("H(C) should not be empty for a homogeneous column")
	}
}

func TestEnumerateAlnumPassUnifiesHexIDs(t *testing.T) {
	col := []string{"a3f9", "1b2c", "9999", "abcd", "12ef"}
	res := HypothesisSpace(col, DefaultEnumOptions())
	got := keys(res)
	if n, ok := got["<alnum>{4}"]; !ok || n != len(col) {
		t.Fatalf("expected <alnum>{4} to cover all %d values, got %v (candidates: %v)", len(col), n, got)
	}
	if _, ok := got["<alnum>+"]; !ok {
		t.Error("expected <alnum>+ in H(C)")
	}
}

func TestEnumerateSupportCounts(t *testing.T) {
	// 9 timestamps without suffix, 3 with " PM": the no-suffix pattern
	// should be enumerated with support 9 when MinSupport is low.
	col := make([]string, 0, 12)
	for i := 0; i < 9; i++ {
		col = append(col, fmt.Sprintf("9/12/2019 12:01:3%d", i))
	}
	for i := 0; i < 3; i++ {
		col = append(col, fmt.Sprintf("9/12/2019 12:01:4%d PM", i))
	}
	opt := DefaultEnumOptions()
	opt.MinSupport = 0.10
	res := Enumerate(col, opt)
	got := keys(res)
	n, ok := got["<digit>{1}/<digit>{2}/<digit>{4} <digit>{2}:<digit>{2}:<digit>{2}"]
	if !ok {
		t.Fatalf("expected the no-suffix fine pattern to be enumerated; have %d candidates", len(got))
	}
	if n != 9 {
		t.Errorf("no-suffix pattern support = %d, want 9", n)
	}
	nPM, ok := got["<digit>{1}/<digit>{2}/<digit>{4} <digit>{2}:<digit>{2}:<digit>{2} PM"]
	if !ok || nPM != 3 {
		t.Errorf("PM pattern support = %d (present=%v), want 3", nPM, ok)
	}
}

func TestEnumerateRespectsMinSupport(t *testing.T) {
	col := []string{"aaa", "aaa", "aaa", "aaa", "aaa", "aaa", "aaa", "aaa", "aaa", "zz"}
	opt := DefaultEnumOptions()
	opt.MinSupport = 0.5
	res := Enumerate(col, opt)
	for _, c := range res.Candidates {
		if float64(c.Matched) < 0.5*float64(res.Total) {
			t.Errorf("candidate %s has support %d/%d below MinSupport", c.Pattern, c.Matched, res.Total)
		}
	}
	if _, ok := keys(res)["zz"]; ok {
		t.Error("low-support constant must be pruned")
	}
}

func TestEnumerateWideValuesSkipped(t *testing.T) {
	opt := DefaultEnumOptions()
	opt.MaxTokens = 3
	col := []string{"1-2-3-4-5-6", "1-2-3-4-5-7"} // 11 tokens each
	res := Enumerate(col, opt)
	if res.Wide != 2 {
		t.Errorf("Wide = %d, want 2", res.Wide)
	}
	if len(res.Candidates) != 0 {
		t.Errorf("wide-only column should produce no candidates, got %d", len(res.Candidates))
	}
}

func TestEnumerateEmptyValues(t *testing.T) {
	res := HypothesisSpace([]string{"", "", "ab"}, DefaultEnumOptions())
	if res.Empty != 2 {
		t.Errorf("Empty = %d, want 2", res.Empty)
	}
	// With intersection semantics nothing can match the empty strings.
	if len(res.Candidates) != 0 {
		t.Errorf("expected no candidates, got %d", len(res.Candidates))
	}
}

func TestEnumerateDedupWeights(t *testing.T) {
	col := []string{"ab", "ab", "ab", "cd"}
	res := Enumerate(col, DefaultEnumOptions())
	if res.Total != 4 {
		t.Fatalf("Total = %d, want 4 (multiplicity preserved)", res.Total)
	}
	got := keys(res)
	if got["<letter>{2}"] != 4 {
		t.Errorf("<letter>{2} support = %d, want 4", got["<letter>{2}"])
	}
	if got["ab"] != 3 {
		t.Errorf("constant ab support = %d, want 3", got["ab"])
	}
}

func TestDedupe(t *testing.T) {
	values := []string{"a", "b", "a", "", "c", "a", "b", "c", ""}
	for _, tc := range []struct {
		maxValues int
		uniq      []string
		weights   []int
	}{
		{0, []string{"a", "b", "", "c"}, []int{3, 2, 2, 2}},
		{4, []string{"a", "b", "", "c"}, []int{3, 2, 2, 2}},
		// Past the cap a new value is dropped with all its occurrences;
		// one already kept goes on counting.
		{2, []string{"a", "b"}, []int{3, 2}},
		{1, []string{"a"}, []int{3}},
	} {
		uniq, weights := Dedupe(values, tc.maxValues)
		if fmt.Sprint(uniq, weights) != fmt.Sprint(tc.uniq, tc.weights) {
			t.Errorf("Dedupe(maxValues=%d) = %q %v, want %q %v", tc.maxValues, uniq, weights, tc.uniq, tc.weights)
		}
	}
}

// EnumerateLexed is the whole of Enumerate below de-duplication and
// lexing, and keeps nothing of the slices it is handed.
func TestEnumerateLexedIsEnumerateBelowTheLexer(t *testing.T) {
	values := []string{"a1-b2", "a1-b2", "", "c33-d4", "x-y", "0a1b2c3d4e5f6071-z"}
	opt := DefaultEnumOptions()
	opt.MinSupport, opt.MaxTokens = 0.3, 4
	uniq, weights := Dedupe(values, 0)
	fine := make([][]tokens.Run, len(uniq))
	merged := make([][]tokens.Run, len(uniq))
	for i, v := range uniq {
		fine[i] = tokens.Lex(v)
		merged[i] = tokens.MergeAlnum(nil, v, fine[i])
	}
	got := EnumerateLexed(weights, fine, merged, opt)
	for i := range fine { // the caller reuses all of it for its next segment
		clear(fine[i])
		clear(merged[i])
	}
	clear(weights)
	clear(fine)
	clear(merged)
	if want := Enumerate(values, opt); !reflect.DeepEqual(got, want) {
		t.Errorf("EnumerateLexed = %+v\nEnumerate = %+v", got, want)
	}
}

func TestEnumerateMaxPatternsCap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	col := make([]string, 64)
	for i := range col {
		col[i] = fmt.Sprintf("%c%c-%04d-%02d", 'a'+rng.Intn(26), 'a'+rng.Intn(26), rng.Intn(10000), rng.Intn(100))
	}
	opt := DefaultEnumOptions()
	opt.MaxPatterns = 5
	res := Enumerate(col, opt)
	if len(res.Candidates) > 5 {
		t.Errorf("cap violated: %d candidates", len(res.Candidates))
	}
	if !res.Capped {
		t.Error("Capped flag should be set")
	}
}

// A cap reached on the last pattern of one shape group still truncates:
// every later group is skipped whole.
func TestEnumerateCappedWhenLaterGroupSkipped(t *testing.T) {
	opt := DefaultEnumOptions()
	opt.IncludeAlnumPass = false
	opt.MaxPatterns = 4
	// The letter group (weight 4) goes first and emits exactly
	// <letter>+, <letter>{2}, ab, cd; the digit group is never explored.
	res := Enumerate([]string{"ab", "ab", "cd", "cd", "12"}, opt)
	if got := keys(res); len(got) != 4 || got["cd"] != 2 || got["<digit>+"] != 0 {
		t.Fatalf("candidates = %v, want the letter group's four", got)
	}
	if !res.Capped {
		t.Error("Capped = false though the digit group's patterns were dropped")
	}
}

// Exactly MaxPatterns distinct patterns is not a truncation.
func TestEnumerateNotCappedAtExactlyMaxPatterns(t *testing.T) {
	opt := DefaultEnumOptions()
	opt.IncludeAlnumPass = false
	opt.MaxPatterns = 4
	res := Enumerate([]string{"ab", "ab", "cd", "cd"}, opt)
	if len(res.Candidates) != 4 {
		t.Fatalf("candidates = %v, want 4", keys(res))
	}
	if res.Capped {
		t.Error("Capped = true though no pattern was dropped")
	}
}

// Property: every enumerated candidate's reported support equals its true
// match count over the column (the bitset bookkeeping is consistent with
// the matcher).
func TestEnumerateSupportConsistencyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		p := randomPattern(rng)
		col := make([]string, 20)
		for i := range col {
			col[i] = generate(rng, p)
		}
		opt := DefaultEnumOptions()
		opt.MinSupport = 0.2
		res := Enumerate(col, opt)
		for _, c := range res.Candidates {
			if true1 := matchCount(c.Pattern, col); true1 < c.Matched {
				// The bitset support may undercount (cross-group
				// matches are not credited) but must never
				// overcount.
				t.Fatalf("trial %d: candidate %s reports %d matches, true count %d (col from %s)",
					trial, c.Pattern, c.Matched, true1, p)
			}
		}
	}
}

// Property: H(C) intersection semantics — every candidate matches every
// value.
func TestHypothesisSpaceIntersectionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		p := randomPattern(rng)
		col := make([]string, 15)
		for i := range col {
			col[i] = generate(rng, p)
		}
		res := HypothesisSpace(col, DefaultEnumOptions())
		for _, c := range res.Candidates {
			for _, v := range col {
				if !c.Pattern.Match(v) {
					t.Fatalf("trial %d: H(C) candidate %s fails value %q", trial, c.Pattern, v)
				}
			}
		}
	}
}

// deepCopy copies res down to its candidates' tokens.
func deepCopy(res EnumResult) EnumResult {
	out := res
	out.Candidates = make([]Candidate, len(res.Candidates))
	for i, c := range res.Candidates {
		c.Pattern.Toks = append([]Tok(nil), c.Pattern.Toks...)
		out.Candidates[i] = c
	}
	return out
}

// Enumerate's result is the caller's: later calls over other shapes, one
// of them capped by MaxPatterns, leave an earlier result as it was, and
// eight goroutines enumerating at once (run under -race) each get the
// sequential results.
func TestEnumerateResultsAreCallerOwned(t *testing.T) {
	leaf := DefaultEnumOptions()
	leaf.MinSupport, leaf.MaxTokens = 1, 8
	capped := DefaultEnumOptions()
	capped.MaxPatterns = 6
	columns := []struct {
		values []string
		opt    EnumOptions
	}{
		{[]string{"03/14/2019", "11/02/2020", "07/30/2018", "03/14/2019"}, leaf},
		{[]string{"ab-12", "cd-345", "ef-6", "Gh-78"}, DefaultEnumOptions()},
		{[]string{"Mar 01 2019", "Apr 12 2020", "x9 y8", "2019-01-02 10:11"}, capped},
	}
	a := Enumerate(columns[0].values, columns[0].opt)
	want := []EnumResult{deepCopy(a)}
	for _, col := range columns[1:] {
		want = append(want, deepCopy(Enumerate(col.values, col.opt)))
	}
	if !want[2].Capped {
		t.Fatalf("the third column does not reach MaxPatterns = %d", capped.MaxPatterns)
	}
	if !reflect.DeepEqual(a, want[0]) {
		t.Fatalf("a later enumeration changed an earlier result:\n got %v\nwant %v", a.Candidates, want[0].Candidates)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				for i, col := range columns {
					if got := Enumerate(col.values, col.opt); !reflect.DeepEqual(got, want[i]) {
						t.Errorf("column %d enumerated concurrently: got %v, want %v", i, got.Candidates, want[i].Candidates)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// The shape key the enumerator groups by is tokens.ClassShape's.
func TestAppendClassShapeIsClassShape(t *testing.T) {
	for _, v := range []string{"", "a", "ab12-CD 9.x", "  <x>", "número1-ß\xff"} {
		runs := tokens.Lex(v)
		if got, want := string(appendClassShape([]byte("x"), runs)), "x"+tokens.ClassShape(runs); got != want {
			t.Errorf("appendClassShape(%q) = %q, want %q", v, got, want)
		}
	}
}

// BenchmarkEnumerateTimestampColumn enumerates a 100-value timestamp
// column two ways: "index" is Enumerate at the default options (τ = 13,
// 5 % support, the union semantics of P(D)); "leaf" is what the
// vertical-cut DP hands the enumerator for one segment — the values'
// first eight runs, already de-duplicated and lexed, at full support and
// τ = 8.
func BenchmarkEnumerateTimestampColumn(b *testing.B) {
	col := make([]string, 100)
	rng := rand.New(rand.NewSource(1))
	for i := range col {
		col[i] = fmt.Sprintf("%d/%02d/%04d %02d:%02d:%02d",
			1+rng.Intn(12), 1+rng.Intn(28), 2015+rng.Intn(6),
			rng.Intn(24), rng.Intn(60), rng.Intn(60))
	}
	b.Run("index", func(b *testing.B) {
		opt := DefaultEnumOptions()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Enumerate(col, opt)
		}
	})
	b.Run("leaf", func(b *testing.B) {
		opt := DefaultEnumOptions()
		opt.MinSupport, opt.MaxTokens = 1, 8
		uniq, weights := Dedupe(col, opt.MaxValues)
		fine := make([][]tokens.Run, len(uniq))
		merged := make([][]tokens.Run, len(uniq))
		for i, v := range uniq {
			fine[i] = tokens.Lex(v)[:8]
			merged[i] = tokens.MergeAlnum(nil, v, fine[i])
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			EnumerateLexed(weights, fine, merged, opt)
		}
	})
}
