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
// once, and allocates 34 100 now that the column is lexed once and the DP
// hands the enumerator run slices from scratch it reuses. What is left is
// the enumerator's own (its maps, bitsets and options per segment). The
// ceiling sits a quarter above that.
func TestInferColdAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	idx := testIndex(t)
	vals := fresh(t, "timestamp_us", 100, 7)
	opt := testOptions(FMDVVH)
	const ceiling = 42700
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Infer(vals, idx, opt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > ceiling {
		t.Errorf("cold Infer of a timestamp_us column allocates %.0f objects, ceiling %d", allocs, ceiling)
	}
}
