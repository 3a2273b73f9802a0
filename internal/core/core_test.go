package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"autovalidate/internal/datagen"
	"autovalidate/internal/index"
	"autovalidate/internal/pattern"
)

// The test fixture: a modest Enterprise lake and its τ=8 index, built
// once per test binary.
var (
	fixtureOnce sync.Once
	fixtureIdx  *index.Index
)

func testIndex(t *testing.T) *index.Index {
	t.Helper()
	fixtureOnce.Do(buildFixture)
	return fixtureIdx
}

func buildFixture() {
	c := datagen.Generate(datagen.Enterprise(100, 11))
	fixtureIdx = index.Build(c.Columns(), index.DefaultBuildOptions())
}

func testOptions(strategy Strategy) Options {
	opt := DefaultOptions()
	opt.Strategy = strategy
	opt.M = 10 // the fixture lake is small; scale m accordingly
	return opt
}

func fresh(t *testing.T, domain string, n int, seed int64) []string {
	t.Helper()
	vals, err := datagen.FreshColumn(domain, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return vals
}

func TestInferDateColumnMatchesPaperExample(t *testing.T) {
	idx := testIndex(t)
	vals := fresh(t, "date_mdy_text", 100, 5)
	rule, err := Infer(vals, idx, testOptions(FMDV))
	if err != nil {
		t.Fatal(err)
	}
	// Figure 2(a): the suitable validation pattern for C1.
	if got := rule.Pattern.String(); got != "<letter>{3} <digit>{2} <digit>{4}" {
		t.Errorf("inferred %q, want the paper's C1 pattern", got)
	}
	if rule.EstimatedFPR > 0.01 {
		t.Errorf("estimated FPR %v too high", rule.EstimatedFPR)
	}
	if rule.TrainNonConforming != 0 {
		t.Errorf("basic FMDV on a clean column should have 0 non-conforming, got %d", rule.TrainNonConforming)
	}
}

func TestInferRejectsProfilingPatterns(t *testing.T) {
	// A single-month training column must NOT yield a month-constant
	// pattern (the Potter's-Wheel-style "Mar <digit>{2} 2019" that the
	// paper shows causes false alarms).
	idx := testIndex(t)
	vals := make([]string, 30)
	for i := range vals {
		vals[i] = fmt.Sprintf("Mar %02d 2019", i+1)
	}
	rule, err := Infer(vals, idx, testOptions(FMDV))
	if err != nil {
		t.Fatal(err)
	}
	if rule.Pattern.Match("Apr 01 2020") == false {
		t.Errorf("pattern %q would false-alarm on next month's data", rule.Pattern)
	}
}

func TestInferWideColumnNeedsVerticalCuts(t *testing.T) {
	idx := testIndex(t)
	vals := fresh(t, "timestamp_us", 100, 5) // 13 tokens > τ=8
	if _, err := Infer(vals, idx, testOptions(FMDV)); !errors.Is(err, ErrNoFeasible) {
		t.Errorf("basic FMDV at τ=8 should be infeasible on 13-token values, got %v", err)
	}
	rule, err := Infer(vals, idx, testOptions(FMDVV))
	if err != nil {
		t.Fatalf("FMDV-V should compensate for τ: %v", err)
	}
	for _, v := range vals {
		if !rule.Pattern.Match(v) {
			t.Fatalf("vertical pattern %q fails training value %q", rule.Pattern, v)
		}
	}
	if len(rule.Segments) < 2 {
		t.Errorf("expected a multi-segment rule, got %d segments", len(rule.Segments))
	}
}

func TestInferCompositeColumn(t *testing.T) {
	// The Figure 8 composite column (~27 tokens) is only validatable
	// with vertical cuts.
	idx := testIndex(t)
	vals := fresh(t, "composite_booking", 80, 6)
	rule, err := Infer(vals, idx, testOptions(FMDVVH))
	if err != nil {
		t.Fatal(err)
	}
	next := fresh(t, "composite_booking", 200, 61)
	rep, err := rule.Validate(next)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Alarm {
		t.Errorf("composite rule false-alarms on same-domain future data: %v", rep)
	}
}

func TestInferHorizontalCutsTolerateSpecials(t *testing.T) {
	idx := testIndex(t)
	vals := fresh(t, "int_id8", 100, 7)
	vals[3], vals[40], vals[77] = "-", "NULL", "N/A" // Figure 9's ad-hoc specials
	if _, err := Infer(vals, idx, testOptions(FMDV)); !errors.Is(err, ErrNoFeasible) {
		t.Errorf("basic FMDV must fail on non-homogeneous column, got %v", err)
	}
	rule, err := Infer(vals, idx, testOptions(FMDVH))
	if err != nil {
		t.Fatal(err)
	}
	if got := rule.Pattern.String(); got != "<digit>{8}" {
		t.Errorf("FMDV-H pattern = %q, want <digit>{8}", got)
	}
	if rule.TrainNonConforming != 3 {
		t.Errorf("TrainNonConforming = %d, want 3", rule.TrainNonConforming)
	}
	if theta := rule.TrainTheta(); theta < 0.02 || theta > 0.04 {
		t.Errorf("TrainTheta = %v, want ≈0.03", theta)
	}
}

func TestInferThetaBudgetExceeded(t *testing.T) {
	idx := testIndex(t)
	vals := fresh(t, "int_id8", 40, 7)
	for i := 0; i < 12; i++ { // 30% specials > θ=10%
		vals[i*3] = datagen.Specials[i%len(datagen.Specials)]
	}
	opt := testOptions(FMDVH)
	opt.Theta = 0.10
	if _, err := Infer(vals, idx, opt); !errors.Is(err, ErrNoFeasible) {
		t.Errorf("30%% specials should exceed θ=0.1, got %v", err)
	}
	opt.Theta = 0.40
	if _, err := Infer(vals, idx, opt); err != nil {
		t.Errorf("θ=0.4 should tolerate 30%% specials, got %v", err)
	}
}

func TestInferVHCombinesBoth(t *testing.T) {
	idx := testIndex(t)
	vals := fresh(t, "timestamp_us", 100, 8)
	vals[5], vals[50] = "NULL", "-"
	rule, err := Infer(vals, idx, testOptions(FMDVVH))
	if err != nil {
		t.Fatal(err)
	}
	if rule.TrainNonConforming != 2 {
		t.Errorf("TrainNonConforming = %d, want 2", rule.TrainNonConforming)
	}
	if !rule.Pattern.Match("9/12/2019 12:01:32 PM") {
		t.Errorf("rule %q should match domain values", rule.Pattern)
	}
}

func TestInferEmptyColumn(t *testing.T) {
	idx := testIndex(t)
	for _, strat := range []Strategy{FMDV, FMDVV, FMDVH, FMDVVH} {
		if _, err := Infer(nil, idx, testOptions(strat)); !errors.Is(err, ErrEmptyColumn) {
			t.Errorf("%v: want ErrEmptyColumn, got %v", strat, err)
		}
	}
}

func TestInferCoverageConstraint(t *testing.T) {
	idx := testIndex(t)
	vals := fresh(t, "locale", 60, 9)
	opt := testOptions(FMDV)
	opt.M = 1 << 30 // nothing can have this much coverage
	if _, err := Infer(vals, idx, opt); !errors.Is(err, ErrNoFeasible) {
		t.Errorf("impossible coverage target should be infeasible, got %v", err)
	}
}

func TestInferFPRConstraint(t *testing.T) {
	idx := testIndex(t)
	// Mix two domains 50/50: any pattern covering both halves is very
	// general, and r=0 leaves no feasible choice for strict FMDV.
	a := fresh(t, "locale", 30, 9)
	b := fresh(t, "date_iso", 30, 9)
	vals := append(append([]string{}, a...), b...)
	opt := testOptions(FMDV)
	opt.R = 0
	if _, err := Infer(vals, idx, opt); !errors.Is(err, ErrNoFeasible) {
		t.Errorf("r=0 on a mixed column should be infeasible, got %v", err)
	}
}

func TestStrategyString(t *testing.T) {
	names := map[Strategy]string{FMDV: "FMDV", FMDVV: "FMDV-V", FMDVH: "FMDV-H", FMDVVH: "FMDV-VH"}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("Strategy(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
}

func TestParseStrategy(t *testing.T) {
	for _, s := range []Strategy{FMDV, FMDVV, FMDVH, FMDVVH} {
		got, err := ParseStrategy(s.String())
		if err != nil || got != s {
			t.Errorf("ParseStrategy(%q) = %v, %v; want %v", s.String(), got, err, s)
		}
	}
	for _, name := range []string{"", "vh"} {
		_, err := ParseStrategy(name)
		if want := fmt.Sprintf("unknown strategy %q", name); err == nil || err.Error() != want {
			t.Errorf("ParseStrategy(%q) error = %v, want %q", name, err, want)
		}
	}
}

func TestRuleDetectsSchemaDrift(t *testing.T) {
	// The headline behaviour: a rule learned on one domain must flag a
	// column from a different domain (simulated schema drift).
	idx := testIndex(t)
	rule, err := Infer(fresh(t, "date_mdy_text", 100, 5), idx, testOptions(FMDVVH))
	if err != nil {
		t.Fatal(err)
	}
	drifted := fresh(t, "locale", 200, 10)
	rep, err := rule.Validate(drifted)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Alarm {
		t.Errorf("schema drift not detected: %v", rep)
	}
}

func TestRuleAcceptsSameDomainFuture(t *testing.T) {
	idx := testIndex(t)
	for _, dom := range []string{"date_mdy_text", "time_hms", "locale", "kb_entity", "guid", "session_id"} {
		rule, err := Infer(fresh(t, dom, 100, 5), idx, testOptions(FMDVVH))
		if err != nil {
			t.Fatalf("%s: %v", dom, err)
		}
		rep, err := rule.Validate(fresh(t, dom, 400, 500))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Alarm {
			t.Errorf("%s: false alarm on same-domain future data: %v", dom, rep)
		}
	}
}

func TestInferNoIndexAgreesWithIndexed(t *testing.T) {
	c := datagen.Generate(datagen.Enterprise(30, 21))
	idx := index.Build(c.Columns(), index.DefaultBuildOptions())
	opt := testOptions(FMDV)
	opt.M = 3
	vals := fresh(t, "date_mdy_text", 60, 5)

	indexed, err := Infer(vals, idx, opt)
	if err != nil {
		t.Fatal(err)
	}
	noIdx, err := InferNoIndex(vals, c.Columns(), opt)
	if err != nil {
		t.Fatal(err)
	}
	// The two estimates differ (the index records enumerated evidence,
	// the scan exact matches) but both must produce safe patterns for
	// the domain.
	for _, v := range fresh(t, "date_mdy_text", 100, 77) {
		if !indexed.Pattern.Match(v) {
			t.Errorf("indexed pattern %q misses %q", indexed.Pattern, v)
		}
		if !noIdx.Pattern.Match(v) {
			t.Errorf("no-index pattern %q misses %q", noIdx.Pattern, v)
		}
	}
}

// InferNoIndex returns the rule of the collect-then-scan path it
// replaced, on generator columns, under a MaxValues cap smaller than the
// column and on a column with an empty value; and, a scan not being an
// index lookup, it moves neither the candidate nor the index-hit counter.
func TestInferNoIndexAgreesWithOracle(t *testing.T) {
	c := datagen.Generate(datagen.Enterprise(30, 21))
	cols := c.Columns()
	opt := testOptions(FMDV)
	opt.M = 3
	capped := opt
	capped.Enum.MaxValues = 4
	check := func(name string, values []string, opt Options) {
		t.Helper()
		c0 := ReadCounters()
		got, gotErr := InferNoIndex(values, cols, opt)
		if c1 := ReadCounters(); c1.Candidates != c0.Candidates || c1.IndexHits != c0.IndexHits {
			t.Errorf("%s: InferNoIndex moved the counters from %+v to %+v", name, c0, c1)
		}
		want, wantErr := oracleInferNoIndex(values, cols, opt)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("%s: InferNoIndex error %v, oracle error %v", name, gotErr, wantErr)
		}
		if gotErr == nil {
			if d := ruleDiff(got, want); d != "" {
				t.Errorf("%s: InferNoIndex disagrees with the oracle: %s", name, d)
			}
		}
	}
	for _, domain := range []string{"date_mdy_text", "ipv4", "locale", "int_plain"} {
		for seed := int64(5); seed < 7; seed++ {
			check(fmt.Sprintf("%s/%d", domain, seed), fresh(t, domain, 40, seed), opt)
		}
	}
	check("capped", fresh(t, "locale", 40, 7), capped)
	check("empty value", append(fresh(t, "ipv4", 20, 5), ""), opt)
}

func TestInferTagIsMoreRestrictive(t *testing.T) {
	idx := testIndex(t)
	vals := fresh(t, "date_mdy_text", 80, 5)
	opt := testOptions(FMDV)
	valRule, err := Infer(vals, idx, opt)
	if err != nil {
		t.Fatal(err)
	}
	tagRule, err := InferTag(vals, idx, opt, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	ve, _ := idx.LookupPattern(valRule.Pattern)
	te, _ := idx.LookupPattern(tagRule.Pattern)
	if te.Cov > ve.Cov {
		t.Errorf("tag pattern %q (cov %d) should not be broader than validation pattern %q (cov %d)",
			tagRule.Pattern, te.Cov, valRule.Pattern, ve.Cov)
	}
}

func TestGenerality(t *testing.T) {
	// The most specific pattern of a value: its constant tokens.
	specific := pattern.New(pattern.Lit("Mar"), pattern.Lit(" "), pattern.Lit("01"), pattern.Lit(" "), pattern.Lit("2019"))
	d, _ := datagen.DomainByName("date_mdy_text")
	mid := d.Ideal
	if generality(specific) >= generality(mid) {
		t.Errorf("constants must score more specific than classes")
	}
}

func TestCMDVObjectiveDiffers(t *testing.T) {
	idx := testIndex(t)
	vals := fresh(t, "int_plain", 80, 5)
	optF := testOptions(FMDV)
	optC := testOptions(FMDV)
	optC.Objective = MinCoverage
	rf, errF := Infer(vals, idx, optF)
	rc, errC := Infer(vals, idx, optC)
	if errF != nil || errC != nil {
		t.Fatalf("errors: %v / %v", errF, errC)
	}
	ef, _ := idx.LookupPattern(rf.Pattern)
	ec, _ := idx.LookupPattern(rc.Pattern)
	if ec.Cov > ef.Cov {
		t.Errorf("CMDV should pick coverage ≤ FMDV's: %d vs %d", ec.Cov, ef.Cov)
	}
}
