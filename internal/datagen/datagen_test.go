package datagen

import (
	"strings"
	"testing"

	"autovalidate/internal/pattern"
	"autovalidate/internal/tokens"
)

func TestEnterpriseGenerateDeterministic(t *testing.T) {
	a := Generate(Enterprise(10, 42))
	b := Generate(Enterprise(10, 42))
	if a.NumColumns() != b.NumColumns() {
		t.Fatalf("column counts differ: %d vs %d", a.NumColumns(), b.NumColumns())
	}
	ac, bc := a.Columns(), b.Columns()
	for i := range ac {
		if ac[i].Domain != bc[i].Domain || len(ac[i].Values) != len(bc[i].Values) {
			t.Fatalf("column %d differs between identical seeds", i)
		}
		for j := range ac[i].Values {
			if ac[i].Values[j] != bc[i].Values[j] {
				t.Fatalf("value %d/%d differs between identical seeds", i, j)
			}
		}
	}
	c := Generate(Enterprise(10, 43))
	if c.NumColumns() == a.NumColumns() {
		// Same table count but contents should differ somewhere.
		diff := false
		cc := c.Columns()
		for i := range ac {
			if i < len(cc) && ac[i].Domain != cc[i].Domain {
				diff = true
				break
			}
		}
		if !diff && len(cc) == len(ac) {
			t.Log("seeds 42/43 produced same domain sequence; acceptable but unusual")
		}
	}
}

func TestEnterpriseProfileShape(t *testing.T) {
	c := Generate(Enterprise(60, 7))
	stats := c.ComputeStats()
	if stats.NumFiles != 60 {
		t.Errorf("NumFiles = %d, want 60", stats.NumFiles)
	}
	if stats.NumCols < 300 {
		t.Errorf("NumCols = %d, unexpectedly small", stats.NumCols)
	}
	// ~33% NL share.
	nl := 0
	for _, col := range c.Columns() {
		if strings.HasPrefix(col.Domain, "nl_") {
			nl++
		}
	}
	share := float64(nl) / float64(stats.NumCols)
	if share < 0.22 || share > 0.45 {
		t.Errorf("NL share = %.2f, want ≈0.33", share)
	}
}

func TestGovernmentProfileSmallerAndDirtier(t *testing.T) {
	e := Generate(Enterprise(40, 3)).ComputeStats()
	g := Generate(Government(40, 3)).ComputeStats()
	if g.AvgValueCount >= e.AvgValueCount {
		t.Errorf("government columns should be shorter: %v vs %v", g.AvgValueCount, e.AvgValueCount)
	}
}

func TestDirtyColumnsCarrySpecials(t *testing.T) {
	c := Generate(Enterprise(120, 9))
	dirty := 0
	for _, col := range c.Columns() {
		if !strings.HasPrefix(col.Domain, "dirty:") {
			continue
		}
		dirty++
		found := false
		for _, v := range col.Values {
			for _, s := range Specials {
				if v == s {
					found = true
				}
			}
		}
		if !found {
			t.Errorf("dirty column %s has no special values", col.ID())
		}
	}
	if dirty == 0 {
		t.Error("no dirty columns generated at DirtyShare=0.10")
	}
}

func TestEveryMachineDomainGenerates(t *testing.T) {
	for _, d := range append(EnterpriseDomains(), GovernmentDomains()...) {
		vals, err := FreshColumn(d.Name, 50, 1)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if len(vals) != 50 {
			t.Fatalf("%s: got %d values", d.Name, len(vals))
		}
		for _, v := range vals {
			if v == "" {
				t.Errorf("%s generated an empty value", d.Name)
			}
		}
	}
}

func TestIdealPatternsMatchTheirDomains(t *testing.T) {
	// Ground truth sanity: the ideal pattern of each machine domain
	// must match every value the domain can generate.
	for _, d := range append(EnterpriseDomains(), GovernmentDomains()...) {
		if d.Ideal.Toks == nil {
			t.Errorf("%s: machine domain missing ideal pattern", d.Name)
			continue
		}
		for seed := int64(0); seed < 3; seed++ {
			vals, err := FreshColumn(d.Name, 40, seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range vals {
				if !d.Ideal.Match(v) {
					t.Errorf("%s: ideal pattern %q does not match generated %q", d.Name, d.Ideal, v)
				}
			}
		}
	}
}

func TestIdealPatternLookup(t *testing.T) {
	if _, ok := IdealPattern("date_mdy_text"); !ok {
		t.Error("date_mdy_text should have an ideal pattern")
	}
	if _, ok := IdealPattern("dirty:date_mdy_text"); !ok {
		t.Error("dirty: prefix should resolve to the base domain")
	}
	if _, ok := IdealPattern("nl_company"); ok {
		t.Error("NL domains have no ideal pattern")
	}
	if _, ok := IdealPattern("no_such_domain"); ok {
		t.Error("unknown domains have no ideal pattern")
	}
}

func TestFreshColumnUnknownDomain(t *testing.T) {
	if _, err := FreshColumn("nope", 5, 1); err == nil {
		t.Error("unknown domain should error")
	}
}

func TestCompositeIsWide(t *testing.T) {
	vals, err := FreshColumn("composite_booking", 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vals {
		if tokens.Count(v) <= 13 {
			t.Errorf("composite value %q has only %d tokens; must exceed τ=13", v, tokens.Count(v))
		}
	}
}

func TestDomainByName(t *testing.T) {
	if _, ok := DomainByName("guid"); !ok {
		t.Error("guid domain should exist")
	}
	if _, ok := DomainByName("uk_postcode"); !ok {
		t.Error("uk_postcode domain should exist")
	}
	if _, ok := DomainByName("nl_notes"); !ok {
		t.Error("nl_notes domain should exist")
	}
}

func TestGovernmentTyposPresent(t *testing.T) {
	c := Generate(Government(80, 5))
	strayBlanks := 0
	for _, col := range c.Columns() {
		for _, v := range col.Values {
			if v != "" && (strings.HasPrefix(v, " ") || strings.HasSuffix(v, " ")) {
				strayBlanks++
			}
		}
	}
	if strayBlanks == 0 {
		t.Error("government profile should inject stray blanks")
	}
}

// IdealPattern returns the ground-truth pattern for a domain, if any.
// Dirty columns ("dirty:" prefix) share their base domain's pattern.
func IdealPattern(domainLabel string) (pattern.Pattern, bool) {
	name := strings.TrimPrefix(domainLabel, "dirty:")
	d, ok := DomainByName(name)
	if !ok || d.Ideal.Toks == nil {
		return pattern.Pattern{}, false
	}
	return d.Ideal, true
}
