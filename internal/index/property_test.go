package index

import (
	"strings"
	"testing"

	"autovalidate/internal/datagen"
	"autovalidate/internal/pattern"
)

// TestIndexInvariants checks structural invariants over a realistic
// index: every entry has FPR in [0,1], coverage at least 1, coverage no
// larger than the corpus, and a parseable canonical key whose token
// count matches the recorded one and respects τ.
func TestIndexInvariants(t *testing.T) {
	c := datagen.Generate(datagen.Enterprise(40, 13))
	cols := c.Columns()
	opt := DefaultBuildOptions()
	idx := Build(cols, opt)
	if idx.Size() == 0 {
		t.Fatal("empty index")
	}
	checked := 0
	for key, e := range idx.All() {
		if fpr := e.FPR(); fpr < 0 || fpr > 1 {
			t.Fatalf("entry %q has FPR %v outside [0,1]", key, fpr)
		}
		if e.Cov < 1 || int(e.Cov) > len(cols) {
			t.Fatalf("entry %q has impossible coverage %d", key, e.Cov)
		}
		if checked < 500 { // parsing every key is unnecessary
			p, err := pattern.Parse(key)
			if err != nil {
				t.Fatalf("entry key %q does not parse: %v", key, err)
			}
			if p.String() != key {
				t.Fatalf("key %q does not round trip (%q)", key, p.String())
			}
			if got := p.TokenCount(); got != int(e.Tokens) {
				t.Fatalf("key %q: recorded %d tokens, actual %d", key, e.Tokens, got)
			}
			if got := p.TokenCount(); opt.Enum.MaxTokens > 0 && got > opt.Enum.MaxTokens {
				t.Fatalf("key %q exceeds τ=%d with %d tokens", key, opt.Enum.MaxTokens, got)
			}
			checked++
		}
	}
}

// TestIndexCoverageSpotCheck verifies recorded coverage against a direct
// corpus scan for a handful of common patterns: the index may undercount
// (support-pruned evidence) but must never overcount columns.
func TestIndexCoverageSpotCheck(t *testing.T) {
	c := datagen.Generate(datagen.Enterprise(30, 17))
	cols := c.Columns()
	idx := Build(cols, DefaultBuildOptions())
	for _, key := range []string{
		"<letter>{3} <digit>{2} <digit>{4}",
		"<letter>{2}-<letter>{2}",
		"<digit>{8}",
	} {
		e, ok := idx.Lookup(key)
		if !ok {
			t.Errorf("expected %q in index", key)
			continue
		}
		p, err := pattern.Parse(key)
		if err != nil {
			t.Fatalf("Parse(%q): %v", key, err)
		}
		truth := 0
		for _, col := range cols {
			if matches(p, col.Values) {
				truth++
			}
		}
		if int(e.Cov) > truth {
			t.Errorf("%q: recorded coverage %d exceeds true column count %d", key, e.Cov, truth)
		}
		if e.Cov == 0 {
			t.Errorf("%q: zero coverage recorded", key)
		}
	}
}

// TestIndexBuildDeterministic checks rebuild stability: entry sets and
// integer evidence are identical; impurity sums agree to float tolerance
// (the parallel reduction adds them in scheduler-dependent order, so the
// last ulp can differ: at GOMAXPROCS 2, about 2.8 k of the benchmark
// lake's 14.2 k entries differ in their last bits between two builds).
// At one worker the order is the columns', and TestBuildAgreesWithCandidates
// requires equality.
func TestIndexBuildDeterministic(t *testing.T) {
	c := datagen.Generate(datagen.Enterprise(15, 19))
	a := Build(c.Columns(), DefaultBuildOptions())
	b := Build(c.Columns(), DefaultBuildOptions())
	if a.Size() != b.Size() {
		t.Fatalf("sizes differ: %d vs %d", a.Size(), b.Size())
	}
	for k, ea := range a.All() {
		eb, ok := b.Lookup(k)
		if !ok || ea.Cov != eb.Cov || ea.Tokens != eb.Tokens {
			t.Fatalf("entry %q differs across rebuilds: %+v vs %+v", k, ea, eb)
		}
		if d := ea.SumImp - eb.SumImp; d > 1e-9 || d < -1e-9 {
			t.Fatalf("entry %q impurity differs beyond tolerance: %v vs %v", k, ea.SumImp, eb.SumImp)
		}
	}
}

// TestDirtyColumnsContributeImpurity verifies the §2.2 mechanism: lake
// columns carrying ad-hoc specials must push their domain patterns' FPR
// above zero somewhere in the index.
func TestDirtyColumnsContributeImpurity(t *testing.T) {
	c := datagen.Generate(datagen.Enterprise(120, 23))
	dirtyDomains := map[string]bool{}
	for _, col := range c.Columns() {
		if strings.HasPrefix(col.Domain, "dirty:") {
			dirtyDomains[strings.TrimPrefix(col.Domain, "dirty:")] = true
		}
	}
	if len(dirtyDomains) == 0 {
		t.Skip("no dirty columns in this draw")
	}
	idx := Build(c.Columns(), DefaultBuildOptions())
	impure := 0
	for _, e := range idx.All() {
		if e.SumImp > 0 {
			impure++
		}
	}
	if impure == 0 {
		t.Error("no indexed pattern carries impurity despite dirty columns in the lake")
	}
}

// matches reports whether p matches any of the values.
func matches(p pattern.Pattern, values []string) bool {
	misses, _ := pattern.CountMisses(pattern.Compile(p), values, nil, 0)
	return misses < len(values)
}
