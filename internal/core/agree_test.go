package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"autovalidate/internal/datagen"
	"autovalidate/internal/validate"
)

var allStrategies = []Strategy{FMDV, FMDVV, FMDVH, FMDVVH}

// checkInferAgrees asserts Infer returns the oracle's outcome: the same
// error class, or the same pattern, FPR, segments and train counts.
func checkInferAgrees(t *testing.T, name string, values []string, opt Options) {
	t.Helper()
	idx := testIndex(t)
	got, gotErr := Infer(values, idx, opt)
	want, wantErr := oracleInfer(values, idx, opt)
	if (gotErr == nil) != (wantErr == nil) || errors.Is(gotErr, ErrNoFeasible) != errors.Is(wantErr, ErrNoFeasible) ||
		(gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s %s: Infer error %v, oracle error %v", name, opt.Strategy, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if d := ruleDiff(got, want); d != "" {
		t.Fatalf("%s %s: Infer disagrees with the oracle: %s", name, opt.Strategy, d)
	}
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

// Gapped alignments, mixed shapes, empties and junk rows: the inputs
// where a segment's rows differ in which runs they contribute.
func TestInferAgreesWithOracleHandCases(t *testing.T) {
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
	cases := map[string][]string{
		"suffix": suffix, "mixed": mixed, "alnum": alnum, "dupes": dupes, "brackets": brackets,
		"empties": {"", "", ""}, "single": {"a-1"},
	}
	for name, values := range cases {
		for _, st := range allStrategies {
			opt := testOptions(st)
			checkInferAgrees(t, name, values, opt)
			opt.Aggregate = MaxFPR
			checkInferAgrees(t, name+"/max", values, opt)
			opt = testOptions(st)
			opt.Enum.MaxValues = 7 // the cap binds inside segments
			checkInferAgrees(t, name+"/fewValues", values, opt)
			opt = testOptions(st)
			opt.Objective = MinCoverage
			checkInferAgrees(t, name+"/cmdv", values, opt)
		}
	}
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
