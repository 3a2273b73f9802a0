package core

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"autovalidate/internal/datagen"
	"autovalidate/internal/index"
	"autovalidate/internal/msa"
	"autovalidate/internal/pattern"
	"autovalidate/internal/tokens"
	"autovalidate/internal/validate"
)

var allStrategies = []Strategy{FMDV, FMDVV, FMDVH, FMDVVH}

// checkInferAgrees asserts Infer returns the oracle's outcome: the same
// error class, or the same pattern, FPR, segments and train counts.
func checkInferAgrees(t *testing.T, name string, values []string, opt Options) {
	t.Helper()
	if d := inferDisagreement(values, testIndex(t), opt); d != "" {
		t.Fatalf("%s %s: %s", name, opt.Strategy, d)
	}
}

// inferDisagreement describes how Infer departs from the oracle on one
// column, "" when it does not.
func inferDisagreement(values []string, idx *index.Index, opt Options) string {
	got, gotErr := Infer(values, idx, opt)
	want, wantErr := oracleInfer(values, idx, opt)
	if (gotErr == nil) != (wantErr == nil) || errors.Is(gotErr, ErrNoFeasible) != errors.Is(wantErr, ErrNoFeasible) ||
		(gotErr != nil && gotErr.Error() != wantErr.Error()) {
		return fmt.Sprintf("Infer error %v, oracle error %v", gotErr, wantErr)
	}
	if gotErr != nil {
		return ""
	}
	if d := ruleDiff(got, want); d != "" {
		return "Infer disagrees with the oracle: " + d
	}
	return ""
}

func ruleDiff(got, want *validate.Rule) string {
	switch {
	case got.Pattern.String() != want.Pattern.String() || !got.Pattern.Equal(want.Pattern):
		return fmt.Sprintf("pattern %q, want %q", got.Pattern, want.Pattern)
	case got.EstimatedFPR != want.EstimatedFPR:
		return fmt.Sprintf("EstimatedFPR %v, want %v", got.EstimatedFPR, want.EstimatedFPR)
	case !reflect.DeepEqual(got.Segments, want.Segments):
		return fmt.Sprintf("segments %v, want %v", got.Segments, want.Segments)
	case got.TrainNonConforming != want.TrainNonConforming || got.TrainTotal != want.TrainTotal:
		return fmt.Sprintf("train %d/%d, want %d/%d", got.TrainNonConforming, got.TrainTotal, want.TrainNonConforming, want.TrainTotal)
	case got.Strategy != want.Strategy:
		return fmt.Sprintf("strategy %q, want %q", got.Strategy, want.Strategy)
	}
	return ""
}

// Property: for every generator domain and every strategy, the solve-once,
// key-once inference returns exactly the rule of the path it replaced.
func TestInferAgreesWithOracle(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 2
	}
	var domains []datagen.Domain
	domains = append(domains, datagen.EnterpriseDomains()...)
	domains = append(domains, datagen.GovernmentDomains()...)
	domains = append(domains, datagen.NLDomains()...)
	for _, d := range domains {
		for seed := 0; seed < seeds; seed++ {
			values, err := datagen.FreshColumn(d.Name, 60, int64(300+seed))
			if err != nil {
				t.Fatal(err)
			}
			for _, st := range allStrategies {
				checkInferAgrees(t, fmt.Sprintf("%s/%d", d.Name, seed), values, testOptions(st))
			}
		}
	}
}

// The DP's scratch belongs to one Infer call and no rule keeps a slice of
// it: two goroutines inferring the same columns at once (run under -race)
// both agree with the oracle.
func TestInferAgreesWithOracleConcurrently(t *testing.T) {
	idx := testIndex(t)
	var columns [][]string
	for _, domain := range inferIngestDomains {
		columns = append(columns, fresh(t, domain, 60, 41))
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ci, values := range columns {
				for _, st := range allStrategies {
					if d := inferDisagreement(values, idx, testOptions(st)); d != "" {
						t.Errorf("%s %s: %s", inferIngestDomains[ci], st, d)
					}
				}
			}
		}()
	}
	wg.Wait()
}

// A rule is its caller's: its pattern and segments share no memory with
// the enumerations behind it, so 50 later inferences, over every column
// of the infer_ingest workload, leave a kept rule as it was inferred.
func TestInferRulesOutliveLaterInferences(t *testing.T) {
	idx := testIndex(t)
	var columns [][]string
	for _, domain := range inferIngestDomains {
		columns = append(columns, fresh(t, domain, 60, 43))
	}
	for _, st := range []Strategy{FMDV, FMDVVH} {
		opt := testOptions(st)
		opt.R, opt.M = 1, 1 // whatever the index has seen once is feasible
		var names []string
		var kept, want []*validate.Rule
		for ci, values := range columns {
			rule, err := Infer(values, idx, opt)
			if errors.Is(err, ErrNoFeasible) {
				continue
			} else if err != nil {
				t.Fatal(err)
			}
			copied := &validate.Rule{
				Pattern:            pattern.Pattern{Toks: append([]pattern.Tok(nil), rule.Pattern.Toks...)},
				EstimatedFPR:       rule.EstimatedFPR,
				TrainNonConforming: rule.TrainNonConforming,
				TrainTotal:         rule.TrainTotal,
				Strategy:           rule.Strategy,
			}
			for _, seg := range rule.Segments {
				copied.Segments = append(copied.Segments, pattern.Pattern{Toks: append([]pattern.Tok(nil), seg.Toks...)})
			}
			names, kept, want = append(names, inferIngestDomains[ci]), append(kept, rule), append(want, copied)
		}
		if len(kept) < 4 {
			t.Fatalf("%s: only %v have a rule", st, names)
		}
		for i := 0; i < 50; i++ {
			Infer(columns[i%len(columns)], idx, opt)
		}
		for i := range kept {
			if d := ruleDiff(kept[i], want[i]); d != "" {
				t.Errorf("%s %s: after 50 later inferences, %s", names[i], st, d)
			}
		}
	}
}

// Gapped alignments, mixed shapes, empties and junk rows: the inputs
// where a segment's rows differ in which runs they contribute.
func TestInferAgreesWithOracleHandCases(t *testing.T) {
	for name, values := range handCases() {
		for _, st := range allStrategies {
			opt := testOptions(st)
			checkInferAgrees(t, name, values, opt)
			opt.Aggregate = MaxFPR
			checkInferAgrees(t, name+"/max", values, opt)
			opt = testOptions(st)
			opt.Enum.MaxValues = 7 // the cap binds inside segments
			checkInferAgrees(t, name+"/fewValues", values, opt)
			opt.Enum.MaxValues = 2 // fewer than any segment's distinct texts
			opt.R, opt.M = 1, 1
			checkInferAgrees(t, name+"/twoValues", values, opt)
			opt = testOptions(st)
			opt.Objective = MinCoverage
			checkInferAgrees(t, name+"/cmdv", values, opt)
			opt = testOptions(st)
			opt.R, opt.M = 1, 1 // whatever the index has seen once is feasible
			checkInferAgrees(t, name+"/loose", values, opt)
		}
	}
}

// Each segment the DP gathers from the lexed column — texts, weights,
// slots and the fine and merged runs handed to the enumerator — is what
// concatenating the aligned columns' texts, expanding by weight and
// de-duplicating and lexing again gives, up to the text at which the
// shape reject stops. Two segments of one inference, under either
// tokenization, share a memo key only if their (text, weight) sequences
// are equal.
func TestGatherAgreesWithRelexedSegments(t *testing.T) {
	shared := 0
	for name, values := range handCases() {
		for _, maxValues := range []int{0, 2} {
			opt := testOptions(FMDVVH)
			opt.Enum.MaxValues = maxValues
			dp := newSegmentDP(testIndex(t), opt, values)
			type keyed struct {
				seq   string
				merge bool
			}
			seqOf := map[string]keyed{}
			for _, merge := range []bool{false, true} {
				dp.ncols = 0
				dp.infer(opt.Theta, merge) // leaves the alignment it solved in dp
				for s := 0; s < dp.ncols; s++ {
					for e := s; e < dp.ncols; e++ {
						seg := fmt.Sprintf("%s maxValues=%d merge=%v [%d,%d]", name, maxValues, merge, s, e)
						key, seq := checkGather(t, seg, dp, s, e)
						prev, ok := seqOf[key]
						switch {
						case !ok:
							seqOf[key] = keyed{seq, merge}
						case prev.seq != seq:
							t.Fatalf("%s: memo key shared by (text, weight) sequences %s and %s", seg, prev.seq, seq)
						case prev.merge != merge && key != "":
							shared++
						}
					}
				}
			}
		}
	}
	if shared == 0 {
		t.Error("no segment's memo key was met under both tokenizations")
	}
}

// segmentTexts spells segment s..e of dp's alignment the obvious way:
// each member's texts in the aligned columns concatenated, in row order.
// It returns the non-empty ones weight-fold, as Enumerate would be handed
// them, the weight of the empty ones, and the (text, weight) sequence.
func segmentTexts(dp *segmentDP, s, e int) (sub []string, emptyW int, seq string) {
	runsOf := dp.col.fine
	if dp.merge {
		runsOf = dp.col.merged
	}
	for _, row := range dp.rows {
		for _, i := range row.members {
			var text string
			for _, ri := range row.cols[s : e+1] {
				if ri != msa.Gap {
					text += runsOf[i][ri].Text
				}
			}
			if text == "" {
				emptyW += dp.col.weights[i]
				continue
			}
			seq += fmt.Sprintf("(%q, %d)", text, dp.col.weights[i])
			for k := 0; k < dp.col.weights[i]; k++ {
				sub = append(sub, text)
			}
		}
	}
	return sub, emptyW, seq
}

// checkGather gathers and de-duplicates segment s..e and checks the
// scratch against segmentTexts. It returns the segment's memo key and
// (text, weight) sequence.
func checkGather(t *testing.T, name string, dp *segmentDP, s, e int) (key, seq string) {
	t.Helper()
	sub, wantEmptyW, seq := segmentTexts(dp, s, e)
	wantTexts, wantWeights := pattern.Dedupe(sub, dp.opt.Enum.MaxValues)
	allTexts, _ := pattern.Dedupe(sub, 0)

	emptyW, uniform := dp.gather(s, e)
	if emptyW != wantEmptyW || uniform != (len(allTexts) <= 1) {
		t.Fatalf("%s: gather = (%d, %v) over %d distinct texts, want %d empty", name, emptyW, uniform, len(allTexts), wantEmptyW)
	}
	var spanned int
	for _, sp := range dp.spans {
		spanned += dp.col.weights[sp.i]
	}
	if spanned != len(sub) {
		t.Fatalf("%s: spans weigh %d, want %d", name, spanned, len(sub))
	}
	n := len(wantTexts)
	if !dp.dedupe() {
		// Rejected: the texts before the one that ruled out both shapes.
		if n = len(dp.texts); n >= len(wantTexts) {
			t.Fatalf("%s: rejected after all %d texts", name, n)
		}
	}
	if len(dp.texts) != n || len(dp.weights) != n || len(dp.fine) != n || len(dp.merged) != n || len(dp.slot) != n {
		t.Fatalf("%s: %d texts, %d weights, %d fine and %d merged run lists, %d slots, want %d of each",
			name, len(dp.texts), len(dp.weights), len(dp.fine), len(dp.merged), len(dp.slot), n)
	}
	for k, text := range dp.texts {
		w := dp.weights[k]
		if text != wantTexts[k] || w > wantWeights[k] || (n == len(wantTexts) && w != wantWeights[k]) {
			t.Fatalf("%s: texts %q weights %v, want %q %v", name, dp.texts, dp.weights, wantTexts, wantWeights)
		}
		fine := tokens.Lex(text)
		if !reflect.DeepEqual(dp.fine[k], fine) {
			t.Fatalf("%s: runs of %q are %v, want %v", name, text, dp.fine[k], fine)
		}
		if merged := tokens.MergeAlnum(nil, text, fine); !reflect.DeepEqual(dp.merged[k], merged) {
			t.Fatalf("%s: merged runs of %q are %v, want %v", name, text, dp.merged[k], merged)
		}
		if dp.slot[text] != k {
			t.Fatalf("%s: slot of %q is %d, want %d", name, text, dp.slot[text], k)
		}
	}
	return string(dp.key), seq
}

// checkLeafRejects infers values under both tokenizations and, over every
// segment of each alignment a leaf would enumerate (no wider than τ, not
// gapped throughout), holds dedupe's verdict to the obvious one:
// enumerating the segment's texts, weight-fold, at the leaf's full
// support. It returns how many segments were rejected and kept.
func checkLeafRejects(t *testing.T, values []string, opt Options) (rejected, kept int) {
	t.Helper()
	dp := newSegmentDP(testIndex(t), opt, values)
	enum := dp.leafEnum()
	for _, merge := range []bool{false, true} {
		dp.ncols = 0
		dp.infer(opt.Theta, merge)
		for s := 0; s < dp.ncols; s++ {
			for e := s; e < dp.ncols && e-s+1 <= opt.Tau; e++ {
				sub, _, seq := segmentTexts(dp, s, e)
				if len(sub) == 0 {
					continue
				}
				dp.gather(s, e)
				ok := dp.dedupe()
				if none := len(pattern.Enumerate(sub, enum).Candidates) == 0; ok == none {
					t.Fatalf("merge=%v [%d,%d] %s: dedupe kept the segment = %v, but the enumeration has no candidate = %v",
						merge, s, e, seq, ok, none)
				}
				if ok {
					kept++
				} else {
					rejected++
				}
			}
		}
	}
	return rejected, kept
}

// The leaf's shape reject is exact: over every segment of the hand cases
// and of the infer_ingest columns, under both tokenizations, with the
// distinct-value cap loose and binding at 5 and at 2, dedupe gives up on
// a segment exactly when the obvious enumeration finds no candidate.
// alnum/twoValues is the row where comparing a text the cap drops would
// reject segments whose kept texts share a shape.
func TestLeafRejectAgreesWithEnumerate(t *testing.T) {
	columns := handCases()
	for _, domain := range inferIngestDomains {
		columns[domain] = fresh(t, domain, 100, 7)
	}
	caps := []struct {
		name      string
		maxValues int
	}{{"default", DefaultOptions().Enum.MaxValues}, {"fiveValues", 5}, {"twoValues", 2}}
	var rejected, kept int
	for name, values := range columns {
		for _, c := range caps {
			t.Run(name+"/"+c.name, func(t *testing.T) {
				for _, st := range []Strategy{FMDVV, FMDVVH} {
					opt := testOptions(st)
					opt.Enum.MaxValues = c.maxValues
					r, k := checkLeafRejects(t, values, opt)
					rejected, kept = rejected+r, kept+k
				}
			})
		}
	}
	if rejected == 0 || kept == 0 {
		t.Errorf("%d segments rejected and %d kept; want some of each", rejected, kept)
	}
}

// FuzzLeafRejectAgree holds the leaf's shape reject to the obvious
// enumeration on arbitrary newline-separated columns, τ, distinct-value
// caps, horizontal cuts and alignment caps, with and without the alnum
// pass.
func FuzzLeafRejectAgree(f *testing.F) {
	f.Add("9:07\n9:07 PM\n10:15\n10:15 AM\n9:07", byte(5), byte(0))
	f.Add("a1b2-7\nab12-8\n\n12ab-9\na1b2-7", byte(3), byte(4|2<<5))
	f.Add("[1|2/3]\n[4|5]\n[6|7/8]\n[1|2/3]", byte(2), byte(2))
	f.Add("0a1b2c3d-0a1b\nffff0000-abcd\n12345678-9abc\nNULL", byte(4), byte(8))
	f.Add("número1-ß\nnúmero2-ß\n\xff9-x\n", byte(1), byte(1))
	f.Add("1.2.3\n1..3\n4.5.6\n\n7..9", byte(0), byte(16))
	f.Add("a0fa-beef-id1\n7-bf6c-id0\n14167-bcab-id2\na0fa-beef-id1", byte(5), byte(4|1<<5))
	f.Fuzz(func(t *testing.T, column string, tau, knobs byte) {
		if len(column) > 300 {
			return
		}
		opt := testOptions(FMDVV)
		if knobs&8 != 0 {
			opt = testOptions(FMDVVH)
			opt.Theta = 0.5
		}
		// The obvious enumeration is exponential in τ; the property test
		// covers the default.
		opt.Tau = 1 + int(tau%6)
		if knobs&1 != 0 {
			opt.Enum.IncludeAlnumPass = false
		}
		if knobs&4 != 0 {
			opt.Enum.MaxValues = 1 + int(knobs>>5)
		}
		if knobs&16 != 0 {
			opt.MaxAlignCols = 4
		}
		checkLeafRejects(t, strings.Split(column, "\n"), opt)
	})
}

// handCases are columns that exercise the segment arithmetic: gapped
// alignments, mixed shapes, junk rows, and — over the lexed column —
// segments that split a merged run, unequal weights, empties beside
// values at the alignment cap, and non-ASCII bytes.
func handCases() map[string][]string {
	suffix := make([]string, 80) // optional " PM": gap columns
	for i := range suffix {
		suffix[i] = fmt.Sprintf("%d:%02d:%02d", 1+i%12, i%60, (i*7)%60)
		if i%2 == 1 {
			suffix[i] += " PM"
		}
	}
	mixed := make([]string, 0, 90) // three shapes, one cut horizontally
	for i := 0; i < 40; i++ {
		mixed = append(mixed, fmt.Sprintf("2020-%02d-%02d", 1+i%12, 1+i%28), fmt.Sprintf("2020-%02d-%02dT%02d", 1+i%12, 1+i%28, i%24))
	}
	mixed = append(mixed, "NULL", "n/a", "", "", "2020")
	alnum := make([]string, 60) // fine shapes differ, merged shape is one
	for i := range alnum {
		alnum[i] = fmt.Sprintf("%x-%04x-id%d", 0xa0f3*i+7, 0xbeef^i*131, i%7)
	}
	dupes := make([]string, 0, 100) // heavy multiplicity
	for i := 0; i < 100; i++ {
		dupes = append(dupes, fmt.Sprintf("srv%02d.dc%d.example.com", i%5, i%3))
	}
	brackets := make([]string, 50) // separators, some gapped
	for i := range brackets {
		brackets[i] = fmt.Sprintf("[%d|%d/%d]", i, i*3, 100+i)
		if i%5 == 0 {
			brackets[i] = fmt.Sprintf("[%d|%d]", i, i*3)
		}
	}
	midGap := make([]string, 0, 60) // the shorter shape gaps inside a segment
	for i := 0; i < 30; i++ {
		midGap = append(midGap, fmt.Sprintf("%d.%d.%d", 10+i, i%4, 100+i), fmt.Sprintf("%d..%d", 10+i, 100+i))
	}
	splitRun := make([]string, 40) // every fine cut falls inside the merged run "ab12cd"
	for i := range splitRun {
		splitRun[i] = fmt.Sprintf("%s%d%s-%d", []string{"ab", "xy", "q"}[i%3], 10+i%17, []string{"cd", "z"}[i%2], i%9)
	}
	var weighted []string // the same few values 1, 2, 3 … times, interleaved
	for i := 0; i < 6; i++ {
		for k := 0; k <= i; k++ {
			weighted = append(weighted, fmt.Sprintf("v%d-%02d", i, 7*i), fmt.Sprintf("w%d", i%2))
		}
	}
	atCap := strings.Repeat("a-", DefaultOptions().MaxAlignCols/2) // exactly MaxAlignCols runs
	wide := []string{"", atCap, "", atCap + "b", atCap, "a-b", ""}
	highBytes := make([]string, 0, 40) // bytes ≥ 0x80 lex as letters
	for i := 0; i < 20; i++ {
		highBytes = append(highBytes, fmt.Sprintf("número%d-ß%02d", i, i%7), fmt.Sprintf("日本%d語\xff-%02d", i%3, i))
	}
	return map[string][]string{
		"suffix": suffix, "mixed": mixed, "alnum": alnum, "dupes": dupes, "brackets": brackets,
		"empties": {"", "", ""}, "single": {"a-1"},
		"midGap": midGap, "splitRun": splitRun, "weighted": weighted, "wide": wide, "highBytes": highBytes,
	}
}

// FuzzInferAgree feeds arbitrary newline-separated columns to Infer and
// the oracle under all four strategies and compares the whole rule.
func FuzzInferAgree(f *testing.F) {
	f.Add("9:07\n9:07 PM\n10:15\n10:15 AM\n9:07", byte(5), byte(0))
	f.Add("a1b2-7\nab12-8\n\n12ab-9\na1b2-7", byte(3), byte(1|4|2<<5))
	f.Add("[1|2/3]\n[4|5]\n[6|7/8]\n[1|2/3]", byte(2), byte(1|2))
	f.Add("0a1b2c3d-0a1b\nffff0000-abcd\n12345678-9abc\nNULL", byte(4), byte(1|8))
	f.Add("número1-ß\nnúmero2-ß\n\xff9-x\n", byte(1), byte(1))
	f.Add("1.2.3\n1..3\n4.5.6\n\n7..9", byte(0), byte(1|16))
	f.Add("2020-01-02T03\n2020-01-02\n2021-11-12\nn/a", byte(5), byte(8))
	f.Fuzz(func(t *testing.T, column string, tau, knobs byte) {
		if len(column) > 300 {
			return
		}
		values := strings.Split(column, "\n")
		for _, st := range allStrategies {
			opt := testOptions(st)
			// Enumeration is exponential in τ (eight options a position);
			// the property tests cover τ = 8.
			opt.Tau = 1 + int(tau%6)
			if knobs&1 != 0 {
				opt.R, opt.M = 1, 1 // whatever the index has seen once is feasible
			}
			if knobs&2 != 0 {
				opt.Aggregate = MaxFPR
			}
			if knobs&4 != 0 {
				opt.Enum.MaxValues = 1 + int(knobs>>5)
			}
			if knobs&8 != 0 {
				opt.Theta = 0.5
			}
			if knobs&16 != 0 {
				opt.MaxAlignCols = 4
			}
			checkInferAgrees(t, fmt.Sprintf("%q", values), values, opt)
		}
	})
}

// The merged pass re-meets every segment the fine pass solved when no
// value has adjacent letter and digit runs, and none when the two
// tokenizations cut different segments.
func TestLeafMemoServesSharedSegments(t *testing.T) {
	idx := testIndex(t)
	for _, tc := range []struct {
		domain  string
		hitRate float64
	}{{"timestamp_us", 0.5}, {"ipv4", 0.5}, {"guid", 0}} {
		before := ReadCounters()
		if _, err := Infer(fresh(t, tc.domain, 100, 21), idx, testOptions(FMDVVH)); err != nil {
			t.Fatal(err)
		}
		after := ReadCounters()
		hit := after.SegmentsMemoized - before.SegmentsMemoized
		miss := after.SegmentsSolved - before.SegmentsSolved
		if miss == 0 || float64(hit)/float64(hit+miss) != tc.hitRate {
			t.Errorf("%s: %d segments served from the memo, %d solved; want a hit rate of %v", tc.domain, hit, miss, tc.hitRate)
		}
		if after.Candidates == before.Candidates || after.IndexHits == before.IndexHits {
			t.Errorf("%s: candidate and index-hit counters did not move: %+v -> %+v", tc.domain, before, after)
		}
	}
}
