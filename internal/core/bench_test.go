package core

import (
	"testing"

	"autovalidate/internal/datagen"
	"autovalidate/internal/index"
	"autovalidate/internal/pattern"
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

// BenchmarkInferFlat is basic FMDV on the same columns: one leaf over the
// whole column, scored against the fixture index.
func BenchmarkInferFlat(b *testing.B) {
	fixtureOnce.Do(buildFixture)
	opt := testOptions(FMDV)
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

// BenchmarkInferShared is /infer against one served snapshot: FMDV-VH
// through one memo, which every column of every domain shares. An op is
// the next of 20 fresh 100-value columns of its domain (seeds 1–20), so
// once the first 20 have run, the memo holds what the domain's columns
// fold into.
func BenchmarkInferShared(b *testing.B) {
	fixtureOnce.Do(buildFixture)
	m := NewMemo(fixtureIdx, testOptions(FMDVVH))
	for _, domain := range inferIngestDomains {
		var cols [][]string
		for seed := int64(1); seed <= 20; seed++ {
			vals, err := datagen.FreshColumn(domain, 100, seed)
			if err != nil {
				b.Fatal(err)
			}
			cols = append(cols, vals)
		}
		b.Run(domain, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchRule, _ = m.Infer(cols[i%len(cols)])
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
// the costliest column: 98 224 before that step, 6 783 after. Keying the
// leaf memo by spans instead of texts, giving up on a segment as soon as
// its kept texts share no class shape (two in three of guid's segments)
// and the enumerator's full-support fast paths took guid to 3 178 and
// timestamp_us to 4 595. Scoring each leaf candidate as the enumerator
// visits it, so that no leaf's candidates are copied out and only the
// winner's tokens are, took guid to 2 986 and timestamp_us to 4 474 (and
// its bytes from 1 557 k to 528 k). Folding each segment into position
// summaries — no text hashed into a slot map, no MergeAlnum per segment,
// no option bitsets — and solving each summary once (guid's segments that
// share no class shape now share one memo entry) took guid to 2 475 and
// timestamp_us to 4 394 (bytes 709 k → 522 k and 528 k → 410 k).
// Folding each aligned row's members into per-run flags once per
// alignment, so that a segment reads one text a row, adds one flag slab
// per inference and sizes the rows once: guid 2 469 (bytes 522 k →
// 518 k), timestamp_us 4 395 (410 k). Flat FMDV, one leaf over the whole
// column since it stopped collecting H(C) through Enumerate: ipv4, which
// has a rule, 242 → 162, and timestamp_us, whose values are wider than τ
// under both tokenizations, so that the scan stops at the first, 321 →
// 28. Pooling the leaf scorer's feasible hits across inferences, and
// reading a fine run's merged run from a per-value table rather than a
// binary search: guid 2 465, timestamp_us 4 381, flat ipv4 153. Lexing
// the column into one run slab and one int slab, and flat FMDV's values
// into one reused run buffer: guid 1 971, timestamp_us 3 983, flat ipv4
// 49 and flat timestamp_us 21. FMDV-H, which collected its candidates
// through Enumerate and now scores them as Visit hands them over, from an
// enumerator that lexes into pooled scratch: ipv4 245 → 22. Each ceiling
// sits a quarter above its count.
func TestInferColdAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	idx := testIndex(t)
	for _, tc := range []struct {
		strategy Strategy
		domain   string
		ceiling  float64
		feasible bool
	}{
		{FMDVVH, "timestamp_us", 4980, true},
		{FMDVVH, "guid", 2465, true},
		{FMDV, "ipv4", 62, true},
		{FMDV, "timestamp_us", 27, false},
		{FMDVH, "ipv4", 28, true},
	} {
		vals := fresh(t, tc.domain, 100, 7)
		opt := testOptions(tc.strategy)
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := Infer(vals, idx, opt); (err == nil) != tc.feasible {
				t.Fatalf("%s %s: Infer error %v", tc.strategy, tc.domain, err)
			}
		})
		if allocs > tc.ceiling {
			t.Errorf("cold %s Infer of a %s column allocates %.0f objects, ceiling %.0f", tc.strategy, tc.domain, allocs, tc.ceiling)
		}
	}
}

// selectBest allocates nothing for a candidate the index does not know,
// nor for a hit it does not keep: it looks each key up as the
// enumerator's bytes, and only a kept hit gets a string of its key. Over
// an FMDV-H ipv4 column, an index that knows none of its candidates and
// constraints no hit meets each cost what a column with no candidate
// costs.
func TestSelectBestAllocatesOnlyForKeptHits(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	idx, opt := testIndex(t), testOptions(FMDVH)
	vals := fresh(t, "ipv4", 100, 7)
	allocs := func(values []string, idx *index.Index, opt Options) float64 {
		return testing.AllocsPerRun(20, func() { selectBest(values, idx, opt, opt.Theta) })
	}
	none := allocs([]string{"", "", ""}, idx, opt)
	misses := allocs(vals, index.New(), opt)
	unkept := opt
	unkept.M = 1 << 30
	dropped := allocs(vals, idx, unkept)
	if misses != none || dropped != none {
		t.Errorf("selectBest allocates %.1f objects over a column with no candidate, but %.1f when every candidate misses and %.1f when no hit is kept",
			none, misses, dropped)
	}
	hits, kept := 0, allocs(vals, idx, opt)
	enum := opt.Enum
	enum.MaxTokens, enum.MinSupport = opt.Tau, 1-opt.Theta
	pattern.Visit(vals, enum, func(key []byte, _ []pattern.Tok, _, _ int) {
		if _, ok := idx.LookupBytes(key); ok {
			hits++
		}
	})
	t.Logf("selectBest allocates %.1f objects with no candidate, %.1f with %d index hits", none, kept, hits)
	if hits == 0 || kept <= none {
		t.Errorf("the column has %d index hits, and keeping them allocates %.1f objects against %.1f; the test wants hits that are kept", hits, kept, none)
	}
}
