package registry

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"autovalidate/internal/core"
	"autovalidate/internal/datagen"
	"autovalidate/internal/domain"
	"autovalidate/internal/index"
)

// TestLearnMatchesInferThenPut: Learn is core.Infer, domain.Propose and
// PutDomain at the index's generation, spelled once; an inference
// error comes back wrapped and appends nothing.
func TestLearnMatchesInferThenPut(t *testing.T) {
	c := datagen.Generate(datagen.Enterprise(12, 7))
	idx := index.Build(c.Columns(), index.DefaultBuildOptions())
	idx.Generation = 3
	opt := testOptions()

	learned, spelled := New(), New()
	checked, withDomain := 0, 0
	for _, col := range c.Columns()[:16] {
		name := col.Table + ":" + col.Name
		for version := 1; version <= 2; version++ {
			got, err := learned.Learn(name, col.Values, idx, opt)
			rule, wantErr := core.Infer(col.Values, idx, opt)
			if wantErr != nil {
				if err == nil || err.Error() != wantErr.Error() {
					t.Fatalf("%s: Learn error %v, want %v", name, err, wantErr)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: Learn: %v", name, err)
			}
			dom, _ := domain.Propose(col.Values)
			want, err := spelled.PutDomain(name, rule, opt, idx.Generation, dom)
			if err != nil {
				t.Fatal(err)
			}
			if got.Name != want.Name || got.Version != version || want.Version != version ||
				got.IndexGeneration != 3 || got.Stale {
				t.Errorf("%s: Learn gave %s v%d gen %d stale %v, want %s v%d gen 3",
					name, got.Name, got.Version, got.IndexGeneration, got.Stale, want.Name, version)
			}
			// The rule's JSON carries its pattern, EstimatedFPR and
			// training statistics.
			if g, w := mustJSON(t, got.Rule), mustJSON(t, want.Rule); g != w {
				t.Errorf("%s: Learn rule\n%s\nwant\n%s", name, g, w)
			}
			if !reflect.DeepEqual(got.Options, want.Options) || !reflect.DeepEqual(got.Domain, want.Domain) {
				t.Errorf("%s: Learn options/domain %+v %+v, want %+v %+v", name, got.Options, got.Domain, want.Options, want.Domain)
			}
			checked++
			if got.Domain.Name != "" {
				withDomain++
			}
		}
	}
	if checked < 10 || withDomain == 0 {
		t.Fatalf("%d learned rules, %d with a domain: the comparison is too thin", checked, withDomain)
	}
	t.Logf("%d learned rules, %d with a domain", checked, withDomain)

	// Re-learning a registered stream from an infeasible column leaves
	// it as it was.
	col := c.Columns()[0]
	name := col.Table + ":" + col.Name
	epoch, versions := learned.Epoch(), learned.Versions(name)
	infeasible := opt
	infeasible.M = 1 << 30 // no pattern has this much coverage
	if _, err := learned.Learn(name, col.Values, idx, infeasible); !errors.Is(err, core.ErrNoFeasible) {
		t.Fatalf("infeasible column: Learn error %v, want one wrapping core.ErrNoFeasible", err)
	}
	if learned.Epoch() != epoch || learned.Versions(name) != versions {
		t.Errorf("a failed Learn mutated the registry: epoch %d → %d, versions %d → %d",
			epoch, learned.Epoch(), versions, learned.Versions(name))
	}
}

// TestNameMustBeUTF8: a name that is not valid UTF-8 would be saved as
// JSON, which spells each invalid byte U+FFFD, so two such names would
// reload as one stream (the file no longer loads) and a lone one under
// another name. PutDomain and Learn refuse it, so every registry that
// saves also reloads to the same names.
func TestNameMustBeUTF8(t *testing.T) {
	r := New()
	for _, name := range []string{"a\xff", "a\xfe", "\xc3"} {
		if _, err := r.PutDomain(name, testRule(t, "<digit>+"), testOptions(), 0, domain.Detection{}); !errors.Is(err, ErrBadName) {
			t.Errorf("PutDomain(%q): error %v, want ErrBadName", name, err)
		}
		if _, err := r.Learn(name, []string{"1", "2"}, nil, testOptions()); !errors.Is(err, ErrBadName) {
			t.Errorf("Learn(%q): error %v, want ErrBadName before inferring", name, err)
		}
	}
	if r.Len() != 0 || r.Epoch() != 0 {
		t.Fatalf("refused names left %d streams, epoch %d", r.Len(), r.Epoch())
	}
	for _, name := range []string{"a", "aÿ", "a�", "日本"} {
		if _, err := r.PutDomain(name, testRule(t, "<digit>+"), testOptions(), 0, domain.Detection{}); err != nil {
			t.Fatalf("PutDomain(%q): %v", name, err)
		}
	}
	if got, want := saveLoad(t, r).Names(), r.Names(); !reflect.DeepEqual(got, want) {
		t.Errorf("names after a round trip %q, want %q", got, want)
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
