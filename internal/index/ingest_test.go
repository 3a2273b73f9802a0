package index

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"autovalidate/internal/datagen"
)

// equivalentIndexes asserts got carries the same evidence as want: same
// entry set, identical integer evidence (Cov, Tokens), and impurity sums
// and FPR estimates within float tolerance (parallel and incremental
// reductions add the same numbers in different orders).
func equivalentIndexes(t *testing.T, name string, want, got *Index) {
	t.Helper()
	if got.Size() != want.Size() {
		t.Fatalf("%s: %d patterns, want %d", name, got.Size(), want.Size())
	}
	if got.Columns != want.Columns || got.SkippedWide != want.SkippedWide {
		t.Fatalf("%s: corpus totals %d/%d, want %d/%d",
			name, got.Columns, got.SkippedWide, want.Columns, want.SkippedWide)
	}
	if got.Enum != want.Enum {
		t.Fatalf("%s: enum options differ", name)
	}
	const tol = 1e-9
	for k, we := range want.All() {
		ge, ok := got.Lookup(k)
		if !ok {
			t.Fatalf("%s: missing entry %q", name, k)
		}
		if ge.Cov != we.Cov || ge.Tokens != we.Tokens {
			t.Fatalf("%s: entry %q = %+v, want %+v", name, k, ge, we)
		}
		if math.Abs(ge.SumImp-we.SumImp) > tol {
			t.Fatalf("%s: entry %q impurity %v, want %v", name, k, ge.SumImp, we.SumImp)
		}
		if math.Abs(ge.FPR()-we.FPR()) > tol {
			t.Fatalf("%s: entry %q FPR %v, want %v", name, k, ge.FPR(), we.FPR())
		}
	}
}

// TestIncrementalEquivalence is the core property of incremental
// maintenance: Build(all) ≡ Build(half1) + IngestColumns(half2) ≡
// Merge(Build(half1), Build(half2)) — same entries, coverage counts, and
// FPR estimates.
func TestIncrementalEquivalence(t *testing.T) {
	c := datagen.Generate(datagen.Enterprise(30, 11))
	cols := c.Columns()
	if len(cols) < 4 {
		t.Fatal("corpus too small")
	}
	half := len(cols) / 2
	opt := DefaultBuildOptions()
	full := Build(cols, opt)
	if full.Size() == 0 {
		t.Fatal("empty full index")
	}

	inc := Build(cols[:half], opt)
	delta, err := inc.IngestColumns(cols[half:], opt)
	if err != nil {
		t.Fatal(err)
	}
	equivalentIndexes(t, "ingest", full, inc)
	if inc.Generation != 1 {
		t.Errorf("ingest generation %d, want 1", inc.Generation)
	}
	if delta.Base != 0 || delta.Evidence.Columns != len(cols)-half {
		t.Errorf("delta chain metadata wrong: base=%d columns=%d", delta.Base, delta.Evidence.Columns)
	}

	merged, err := Merge(Build(cols[:half], opt), Build(cols[half:], opt))
	if err != nil {
		t.Fatal(err)
	}
	equivalentIndexes(t, "merge", full, merged)
}

// TestMergeRejectsMismatchedEnum verifies indexes built under different
// enumeration options refuse to merge rather than mixing τ regimes.
func TestMergeRejectsMismatchedEnum(t *testing.T) {
	c := datagen.Generate(datagen.Enterprise(6, 5))
	cols := c.Columns()
	a := Build(cols, DefaultBuildOptions())
	opt := DefaultBuildOptions()
	opt.Enum.MaxTokens = 13
	b := Build(cols, opt)
	if _, err := Merge(a, b); err == nil {
		t.Error("merging indexes with different τ should error")
	}
}

// TestMergeDoesNotMutateInputs checks Merge is a pure combination.
func TestMergeDoesNotMutateInputs(t *testing.T) {
	c := datagen.Generate(datagen.Enterprise(8, 13))
	cols := c.Columns()
	half := len(cols) / 2
	opt := DefaultBuildOptions()
	a, b := Build(cols[:half], opt), Build(cols[half:], opt)
	wantA, wantB := a.Clone(), b.Clone()
	if _, err := Merge(a, b); err != nil {
		t.Fatal(err)
	}
	equivalentIndexes(t, "left input", wantA, a)
	equivalentIndexes(t, "right input", wantB, b)
}

// TestDeltaChainCompaction persists a chain of two deltas and replays it
// onto the base: the compacted index must equal a full rebuild, and the
// generation counters must make out-of-order application an error.
func TestDeltaChainCompaction(t *testing.T) {
	c := datagen.Generate(datagen.Enterprise(24, 17))
	cols := c.Columns()
	third := len(cols) / 3
	opt := DefaultBuildOptions()
	full := Build(cols, opt)

	base := Build(cols[:third], opt)
	staged := base.Clone()
	d1, err := staged.IngestColumns(cols[third:2*third], opt)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := staged.IngestColumns(cols[2*third:], opt)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	p1, p2 := filepath.Join(dir, "d1.avd"), filepath.Join(dir, "d2.avd")
	if err := SaveDelta(p1, d1); err != nil {
		t.Fatal(err)
	}
	if err := SaveDelta(p2, d2); err != nil {
		t.Fatal(err)
	}
	r1, err := LoadDelta(p1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := LoadDelta(p2)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Base != 0 || r2.Base != 1 {
		t.Fatalf("reloaded chain positions %d, %d; want 0, 1", r1.Base, r2.Base)
	}

	// Out of order: the second delta cannot apply to the generation-0 base.
	if err := base.Clone().ApplyDelta(r2); err == nil {
		t.Error("applying delta 2 before delta 1 should error")
	}
	// Repeating a delta is also a chain violation, and the broken chain
	// is rejected before anything is applied: the base stays untouched.
	repeated := base.Clone()
	if err := Compact(repeated, r1, r1); err == nil {
		t.Error("applying the same delta twice should error")
	}
	if repeated.Generation != base.Generation || repeated.Columns != base.Columns {
		t.Errorf("failed compaction mutated the base: %s vs %s", repeated, base)
	}

	if err := Compact(base, r1, r2); err != nil {
		t.Fatal(err)
	}
	equivalentIndexes(t, "compacted", full, base)
	if base.Generation != 2 {
		t.Errorf("compacted generation %d, want 2", base.Generation)
	}
	equivalentIndexes(t, "staged", full, staged)
}

// TestApplyDeltaReshards applies a delta read from a file with eight
// hash-partitioned sections, the layout deltas were shipped in before
// the index became one map: the sections fold into one map, the
// evidence must land correctly, and the caller's delta must stay intact.
func TestApplyDeltaReshards(t *testing.T) {
	c := datagen.Generate(datagen.Enterprise(12, 19))
	cols := c.Columns()
	half := len(cols) / 2
	opt := DefaultBuildOptions()
	full := Build(cols, opt)

	base := Build(cols[:half], opt)
	built := BuildDelta(base, cols[half:], opt)
	file := writeSections(t, headerV3{
		Enum:           built.Evidence.Enum,
		Columns:        built.Evidence.Columns,
		SkippedWide:    built.Evidence.SkippedWide,
		Delta:          true,
		BaseGeneration: built.Base,
	}, fnvSections(built.Evidence, 8)...)
	d, err := DecodeDelta(bytes.NewReader(file), int64(len(file)))
	if err != nil {
		t.Fatal(err)
	}
	equivalentIndexes(t, "eight-section delta", built.Evidence, d.Evidence)
	want := d.Evidence.Clone()
	if err := base.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	equivalentIndexes(t, "multi-section apply", full, base)
	equivalentIndexes(t, "caller's delta", want, d.Evidence)
}

// TestCloneIsDeep verifies mutations of a clone never leak into the
// original — the property the service's copy-on-write ingest depends on.
func TestCloneIsDeep(t *testing.T) {
	c := datagen.Generate(datagen.Enterprise(10, 23))
	cols := c.Columns()
	half := len(cols) / 2
	opt := DefaultBuildOptions()
	orig := Build(cols[:half], opt)
	want := orig.Clone()

	mutant := orig.Clone()
	if _, err := mutant.IngestColumns(cols[half:], opt); err != nil {
		t.Fatal(err)
	}
	equivalentIndexes(t, "original after clone mutation", want, orig)
	if orig.Generation != 0 {
		t.Errorf("original generation moved to %d", orig.Generation)
	}
	if mutant.Size() < orig.Size() || mutant.Columns != len(cols) {
		t.Errorf("mutant did not absorb the second half: %s", mutant)
	}
}

// TestIngestEmptyBatch checks a zero-column ingest is a harmless no-op
// that still advances the generation (an explicit, recorded batch).
func TestIngestEmptyBatch(t *testing.T) {
	c := datagen.Generate(datagen.Enterprise(5, 29))
	opt := DefaultBuildOptions()
	idx := Build(c.Columns(), opt)
	want := idx.Clone()
	if _, err := idx.IngestColumns(nil, opt); err != nil {
		t.Fatal(err)
	}
	if idx.Generation != 1 {
		t.Errorf("generation %d after empty ingest, want 1", idx.Generation)
	}
	idx.Generation = 0
	equivalentIndexes(t, "empty ingest", want, idx)
}

// TestIngestUsesIndexEnum verifies ingestion enumerates with the index's
// own options even when the caller passes different ones — mixing τ
// across increments would corrupt the aggregates.
func TestIngestUsesIndexEnum(t *testing.T) {
	c := datagen.Generate(datagen.Enterprise(10, 31))
	cols := c.Columns()
	half := len(cols) / 2
	opt := DefaultBuildOptions() // τ=8
	full := Build(cols, opt)

	inc := Build(cols[:half], opt)
	mismatched := DefaultBuildOptions()
	mismatched.Enum.MaxTokens = 13
	if _, err := inc.IngestColumns(cols[half:], mismatched); err != nil {
		t.Fatal(err)
	}
	equivalentIndexes(t, "ingest with mismatched options", full, inc)
	for k := range inc.All() {
		if strings.Count(k, "<") > 0 && inc.Enum.MaxTokens != 8 {
			t.Fatalf("index enum drifted to τ=%d", inc.Enum.MaxTokens)
		}
	}
}
