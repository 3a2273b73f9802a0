package core

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
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
// the enumerations behind it or with a memo, so 50 later inferences, over
// every column of the infer_ingest workload, leave a kept rule as it was
// inferred — alone or through one shared memo — and writing into every
// kept rule's tokens changes no rule the memo gives later.
func TestInferRulesOutliveLaterInferences(t *testing.T) {
	idx := testIndex(t)
	var columns [][]string
	for _, domain := range inferIngestDomains {
		columns = append(columns, fresh(t, domain, 60, 43))
	}
	for _, st := range []Strategy{FMDV, FMDVVH} {
		for _, shared := range []bool{false, true} {
			opt := testOptions(st)
			opt.R, opt.M = 1, 1 // whatever the index has seen once is feasible
			infer := func(values []string) (*validate.Rule, error) { return Infer(values, idx, opt) }
			if shared {
				infer = NewMemo(idx, opt).Infer
			}
			var names []string
			var kept, want []*validate.Rule
			for ci, values := range columns {
				rule, err := infer(values)
				if errors.Is(err, ErrNoFeasible) {
					continue
				} else if err != nil {
					t.Fatal(err)
				}
				names, kept, want = append(names, inferIngestDomains[ci]), append(kept, rule), append(want, copyRule(rule))
			}
			if len(kept) < 4 {
				t.Fatalf("%s: only %v have a rule", st, names)
			}
			for i := 0; i < 50; i++ {
				infer(columns[i%len(columns)])
			}
			for i := range kept {
				if d := ruleDiff(kept[i], want[i]); d != "" {
					t.Errorf("%s %s shared=%v: after 50 later inferences, %s", names[i], st, shared, d)
				}
			}
			if !shared {
				continue
			}
			for _, rule := range kept {
				scribble(rule.Pattern)
				for _, seg := range rule.Segments {
					scribble(seg)
				}
			}
			for i, name := range names {
				rule, err := infer(columns[slices.Index(inferIngestDomains, name)])
				if err != nil {
					t.Fatal(err)
				}
				if d := ruleDiff(rule, want[i]); d != "" {
					t.Errorf("%s %s: after writing into the memo's earlier rules, %s", name, st, d)
				}
			}
		}
	}
}

// copyRule copies the parts of a rule that ruleDiff compares.
func copyRule(rule *validate.Rule) *validate.Rule {
	copied := &validate.Rule{
		Pattern:            pattern.Pattern{Toks: slices.Clone(rule.Pattern.Toks)},
		EstimatedFPR:       rule.EstimatedFPR,
		TrainNonConforming: rule.TrainNonConforming,
		TrainTotal:         rule.TrainTotal,
		Strategy:           rule.Strategy,
	}
	for _, seg := range rule.Segments {
		copied.Segments = append(copied.Segments, pattern.Pattern{Toks: slices.Clone(seg.Toks)})
	}
	return copied
}

// scribble overwrites every token of p.
func scribble(p pattern.Pattern) {
	for i := range p.Toks {
		p.Toks[i] = pattern.Lit("scribbled")
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

// Each segment the DP summarises from the lexed column — the position
// summaries under both tokenizations, the first text, the gapped weight
// and whether every text is one separator — is what
// concatenating the aligned columns' texts, expanding by weight,
// de-duplicating under the cap and lexing again gives, unless both
// tokenizations are ruled out and the scan stopped early. Two segments of
// one inference, under either tokenization, share a memo key only if
// Enumerate at full support gives them the same candidates, and some keys
// are met under both tokenizations.
func TestGatherAgreesWithRelexedSegments(t *testing.T) {
	shared := 0
	for name, values := range handCases() {
		for _, maxValues := range []int{0, 2, 1} {
			opt := testOptions(FMDVVH)
			opt.Enum.MaxValues = maxValues
			dp := newSegmentDP(NewMemo(testIndex(t), opt), values)
			type keyed struct {
				cands string
				merge bool
			}
			candsOf := map[string]keyed{}
			for _, merge := range []bool{false, true} {
				dp.ncols = 0
				dp.infer(opt.Theta, merge) // leaves the alignment it solved in dp
				for s := 0; s < dp.ncols; s++ {
					for e := s; e < dp.ncols; e++ {
						seg := fmt.Sprintf("%s maxValues=%d merge=%v [%d,%d]", name, maxValues, merge, s, e)
						key, cands := checkGather(t, seg, dp, s, e)
						prev, ok := candsOf[key]
						switch {
						case !ok:
							candsOf[key] = keyed{cands, merge}
						case prev.cands != cands:
							t.Fatalf("%s: memo key shared by candidate sets %s and %s", seg, prev.cands, cands)
						case prev.merge != merge && cands != "":
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

// checkGather summarises segment s..e and checks the scratch against
// segmentTexts. It returns the segment's memo key and its candidates at
// the leaf's full support, their keys in order.
func checkGather(t *testing.T, name string, dp *segmentDP, s, e int) (key, cands string) {
	t.Helper()
	sub, wantEmptyW, seq := segmentTexts(dp, s, e)
	kept, _ := pattern.Dedupe(sub, dp.opt.Enum.MaxValues)
	allTexts, _ := pattern.Dedupe(sub, 0)
	wantMerged, wantFine := relexedSummaries(kept, dp.leafEnum())

	emptyW, separator := dp.summarize(s, e)
	if len(sub) > 0 && dp.first != sub[0] || len(sub) == 0 && dp.first != "" {
		t.Fatalf("%s: first text %q of %s", name, dp.first, seq)
	}
	wantSeparator := len(allTexts) == 1 && isSeparator(allTexts[0])
	merged, fine := dp.merged.positions(), dp.fine.positions()
	if wantMerged == nil && wantFine == nil {
		if merged != nil || fine != nil || separator {
			t.Fatalf("%s: summaries %v and %v of %s (separator %v), want both ruled out", name, merged, fine, seq, separator)
		}
	} else if !reflect.DeepEqual(merged, wantMerged) || !reflect.DeepEqual(fine, wantFine) ||
		emptyW != wantEmptyW || separator != wantSeparator {
		t.Fatalf("%s: summarize = (%d, %v) with summaries %v and %v of %s, want (%d, %v) with %v and %v",
			name, emptyW, separator, merged, fine, seq, wantEmptyW, wantSeparator, wantMerged, wantFine)
	}
	var keys []string
	for _, c := range pattern.Enumerate(sub, dp.leafEnum()).Candidates {
		keys = append(keys, c.Key)
	}
	slices.Sort(keys)
	dp.spellKey()
	return string(dp.key), strings.Join(keys, " ")
}

// relexedSummaries summarises the texts the obvious way, as the leaf
// enumerates them: each lexed and merged afresh, and a tokenization
// summarised only when it is enumerated, every text has one class shape
// under it and none is wider than τ.
func relexedSummaries(texts []string, enum pattern.EnumOptions) (merged, fine []pattern.Position) {
	sum := func(merge bool) []pattern.Position {
		var out []pattern.Position
		for n, text := range texts {
			runs := tokens.Lex(text)
			if merge {
				runs = tokens.MergeAlnum(nil, text, runs)
			}
			if enum.MaxTokens > 0 && len(runs) > enum.MaxTokens || n > 0 && tokens.ClassShape(runs) != classShape(out) {
				return nil
			}
			for k, r := range runs {
				switch {
				case n == 0:
					out = append(out, pattern.Position{Class: r.Class, Text: r.Text, Len: len(r.Text)})
				case out[k].Text != r.Text:
					out[k].Text = ""
					if out[k].Len != len(r.Text) {
						out[k].Len = 0
					}
				}
			}
		}
		return out
	}
	if enum.IncludeAlnumPass {
		merged = sum(true)
	}
	return merged, sum(false)
}

// classShape is tokens.ClassShape of a summary's runs.
func classShape(sum []pattern.Position) string {
	runs := make([]tokens.Run, len(sum))
	for k, p := range sum {
		runs[k].Class = p.Class
	}
	return tokens.ClassShape(runs)
}

// checkLeafRejects infers values under both tokenizations and, over every
// segment of each alignment a leaf would enumerate (no wider than τ, not
// gapped throughout), holds summarize's verdict to the obvious one:
// enumerating the segment's texts, weight-fold, at the leaf's full
// support. It returns how many segments were rejected and kept.
func checkLeafRejects(t *testing.T, values []string, opt Options) (rejected, kept int) {
	t.Helper()
	dp := newSegmentDP(NewMemo(testIndex(t), opt), values)
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
				dp.summarize(s, e)
				ok := dp.fine.ok || dp.merged.ok
				if none := len(pattern.Enumerate(sub, enum).Candidates) == 0; ok == none {
					t.Fatalf("merge=%v [%d,%d] %s: summarize kept a tokenization = %v, but the enumeration has no candidate = %v",
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
// distinct-value cap loose and binding at 5 and at 2, summarize gives up on
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
	for _, c := range groupFoldCases {
		f.Add(strings.Join(c, "\n"), byte(4), byte(0))
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
	var doubled []string // a separator segment whose texts are "-" and "--"
	for i := 0; i < 12; i++ {
		doubled = append(doubled, fmt.Sprintf("ab%d-cd", i%3), fmt.Sprintf("ab%d--cd", i%4))
	}
	return map[string][]string{
		"suffix": suffix, "mixed": mixed, "alnum": alnum, "dupes": dupes, "brackets": brackets,
		"empties": {"", "", ""}, "single": {"a-1"}, "doubled": doubled,
		"midGap": midGap, "splitRun": splitRun, "weighted": weighted, "wide": wide, "highBytes": highBytes,
		// One shape group each, folded as one row: its members differ
		// in one run's text at equal length; in one run's length; in how
		// they split a merged run into fine runs; and across a merged
		// run that fine segments cut inside.
		"rowText": groupFoldCases[0], "rowLen": groupFoldCases[1],
		"rowSplit": groupFoldCases[2], "rowClipped": groupFoldCases[3],
	}
}

// groupFoldCases are the columns of handCases that probe how a row's
// members fold into its flags, also seeds of the leaf and infer fuzzers.
var groupFoldCases = [][]string{
	{"ab-1", "cd-1", "ab-1", "ef-1"},
	{"a-1", "abc-1", "a-1", "ab-1"},
	{"ab12-x", "a1b2-y", "12ab-z", "ab12-x"},
	{"web01-eu", "db02-us", "app11-eu", "web01-eu"},
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
	for _, c := range groupFoldCases {
		f.Add(strings.Join(c, "\n"), byte(4), byte(1))
	}
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

// Segments with the same position summaries are solved once, under
// either tokenization and wherever they lie: the merged pass re-meets
// every segment the fine pass solved when no value has adjacent letter and
// digit runs (timestamp_us, ipv4), equal summaries recur inside one
// alignment (ipv4's octets), and every segment whose texts share no class
// shape has the same, empty, summaries (most of guid's).
func TestLeafMemoServesSharedSegments(t *testing.T) {
	idx := testIndex(t)
	for _, tc := range []struct {
		domain      string
		hit, solved uint64
	}{{"timestamp_us", 74, 66}, {"ipv4", 38, 12}, {"guid", 252, 33}} {
		before := ReadCounters()
		if _, err := Infer(fresh(t, tc.domain, 100, 21), idx, testOptions(FMDVVH)); err != nil {
			t.Fatal(err)
		}
		after := ReadCounters()
		hit := after.SegmentsMemoized - before.SegmentsMemoized
		solved := after.SegmentsSolved - before.SegmentsSolved
		if hit != tc.hit || solved != tc.solved {
			t.Errorf("%s: %d segments served from the memo, %d solved; want %d and %d", tc.domain, hit, solved, tc.hit, tc.solved)
		}
		if after.Candidates == before.Candidates || after.IndexHits == before.IndexHits {
			t.Errorf("%s: candidate and index-hit counters did not move: %+v -> %+v", tc.domain, before, after)
		}
	}
}
