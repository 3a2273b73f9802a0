package index

import (
	"fmt"
	"runtime"
	"testing"

	"autovalidate/internal/corpus"
	"autovalidate/internal/datagen"
	"autovalidate/internal/pattern"
)

// oracleBuild is Build as it was while it collected each column's
// candidates through Enumerate: per column in order, every candidate's
// impurity added to its key's entry, and a column whose values are all
// wider than τ counted as skipped. At one worker Build sums in the same
// column order, so its entries equal these bit for bit.
func oracleBuild(cols []*corpus.Column, enum pattern.EnumOptions) *Index {
	idx := &Index{entries: map[string]Entry{}, Enum: enum, Columns: len(cols)}
	for _, col := range cols {
		res := pattern.Enumerate(col.Values, enum)
		if res.Total > 0 && res.Wide == res.Total {
			idx.SkippedWide++
			continue
		}
		for _, c := range res.Candidates {
			e, ok := idx.entries[c.Key]
			if !ok {
				e.Tokens = uint16(c.Pattern.TokenCount())
			}
			e.SumImp += float64(res.Total-c.Matched) / float64(res.Total)
			e.Cov++
			idx.entries[c.Key] = e
		}
	}
	return idx
}

// checkBuildAgrees holds a one-worker Build to oracleBuild: the same keys,
// entries equal with == (SumImp included), and the same Columns and
// SkippedWide.
func checkBuildAgrees(t *testing.T, name string, cols []*corpus.Column, opt BuildOptions) {
	t.Helper()
	opt.Workers = 1
	got, want := Build(cols, opt), oracleBuild(cols, opt.Enum)
	if got.Columns != want.Columns || got.SkippedWide != want.SkippedWide || got.Size() != want.Size() {
		t.Fatalf("%s: Build has %d columns, %d skipped wide, %d patterns; the oracle %d, %d, %d", name,
			got.Columns, got.SkippedWide, got.Size(), want.Columns, want.SkippedWide, want.Size())
	}
	for key, w := range want.All() {
		if g, ok := got.Lookup(key); !ok || g != w {
			t.Fatalf("%s: entry %q is %+v (present %v), the oracle's %+v", name, key, g, ok, w)
		}
	}
}

// Build, which emits each candidate as the enumerator visits it, builds
// the index the candidate lists built: over the benchmark's lake at three
// seeds, a government lake, the golden files' columns and hand columns
// (empty, every value too wide, some too wide), at τ 8 and at τ 13 with
// the alnum pass off and a pattern cap that binds.
func TestBuildAgreesWithCandidates(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		cols := datagen.Generate(datagen.Enterprise(150, seed)).Columns()
		checkBuildAgrees(t, fmt.Sprintf("enterprise(150, %d)", seed), cols, DefaultBuildOptions())
	}
	checkBuildAgrees(t, "government(60, 5)", datagen.Generate(datagen.Government(60, 5)).Columns(), DefaultBuildOptions())

	wide := "a1-b2-c3-d4-e5-f6-g7-h8-i9"
	hand := []*corpus.Column{ // the golden files' three columns first
		corpus.NewColumn("t1", "id", []string{"a-01", "b-22", "c-33"}),
		corpus.NewColumn("t1", "ts", []string{"2024-01-02", "2024-02-03"}),
		corpus.NewColumn("t2", "code", []string{"XX", "YY", "ZZ"}),
		corpus.NewColumn("t3", "empty", nil),
		corpus.NewColumn("t3", "blank", []string{"", "", ""}),
		corpus.NewColumn("t3", "wide", []string{wide, wide + "x", "-" + wide}),
		corpus.NewColumn("t3", "someWide", []string{wide, "x-1", "y-2", "x-1"}),
	}
	checkBuildAgrees(t, "hand", hand, DefaultBuildOptions())
	if got := Build(hand, BuildOptions{Enum: DefaultBuildOptions().Enum, Workers: 1}); got.SkippedWide != 1 {
		t.Errorf("the hand columns have %d skipped wide, want 1", got.SkippedWide)
	}

	other := DefaultBuildOptions()
	other.Enum.MaxTokens, other.Enum.IncludeAlnumPass, other.Enum.MaxPatterns = 13, false, 40
	checkBuildAgrees(t, "enterprise(20, 4) τ13 fine-only capped", datagen.Generate(datagen.Enterprise(20, 4)).Columns(), other)
}

// Build over a 30-table lake at one worker allocates what visiting leaves.
// Collecting each column's candidates through Enumerate took 174 100
// objects and 63.6 MB a build; emitting each as it is visited, from an
// enumerator that lexes the column into pooled scratch, took 64 300 and
// 4.1 MB, mostly one string per candidate key. Handing each key over as
// the search's bytes, which the build copies into a string only when it
// is new, takes 9 617 and 2.64 MB: the index's own keys and maps. The
// ceilings sit a quarter above those.
func TestBuildAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const maxObjects, maxBytes = 12_020, 3_300_000
	cols := datagen.Generate(datagen.Enterprise(30, 1)).Columns()
	opt := DefaultBuildOptions()
	opt.Workers = 1
	Build(cols, opt) // warm the enumerator's pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 3
	for range runs {
		Build(cols, opt)
	}
	runtime.ReadMemStats(&after)
	objects := float64(after.Mallocs-before.Mallocs) / runs
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("Build over Enterprise(30, 1): %.0f objects, %.0f bytes", objects, bytes)
	if objects > maxObjects || bytes > maxBytes {
		t.Errorf("Build over Enterprise(30, 1) allocates %.0f objects and %.0f bytes, ceilings %d and %d", objects, bytes, maxObjects, maxBytes)
	}
}
