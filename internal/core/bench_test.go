package core

import (
	"testing"

	"autovalidate/internal/datagen"
	"autovalidate/internal/validate"
)

// inferIngestDomains are the columns of one table of the infer_ingest
// benchmark workload (benchmark/workload.go: inferDomains).
var inferIngestDomains = []string{
	"timestamp_us", "guid", "ipv4", "time_ampm", "machine_host", "date_iso", "locale",
}

var benchRule *validate.Rule

// BenchmarkInferCold is the cold /infer path below the handler: one
// 100-value column against the fixture index, as infer_ingest posts it.
func BenchmarkInferCold(b *testing.B) {
	fixtureOnce.Do(buildFixture)
	opt := testOptions(FMDVVH)
	for _, domain := range inferIngestDomains {
		vals, err := datagen.FreshColumn(domain, 100, 7)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(domain, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchRule, _ = Infer(vals, fixtureIdx, opt)
			}
		})
	}
}

// A cold inference of a 13-token timestamp column — 76 segments a
// tokenization — allocated 417 000 objects when both tokenizations solved
// every segment and every candidate's key was rendered for each
// comparison, 94 800 once segments were solved once and keys rendered
// once, 34 100 once the column was lexed once and the DP handed the
// enumerator run slices from scratch it reuses, and 4 716 now that the
// enumerator's own working state (shape groups, per-position counts,
// options, bitsets, rendered option text) is pooled and reset per call,
// and msa.Align reuses its matrices. What is left is mostly one string
// per candidate key. guid, whose two tokenizations share no segment, is
// the costliest column: 98 224 before that last step, 6 783 after. Each
// ceiling sits a quarter above its count.
func TestInferColdAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	idx := testIndex(t)
	opt := testOptions(FMDVVH)
	for _, tc := range []struct {
		domain  string
		ceiling float64
	}{{"timestamp_us", 5900}, {"guid", 8480}} {
		vals := fresh(t, tc.domain, 100, 7)
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := Infer(vals, idx, opt); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > tc.ceiling {
			t.Errorf("cold Infer of a %s column allocates %.0f objects, ceiling %.0f", tc.domain, allocs, tc.ceiling)
		}
	}
}
