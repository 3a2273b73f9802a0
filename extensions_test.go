package autovalidate_test

import (
	"path/filepath"
	"testing"

	"autovalidate"
	"autovalidate/internal/datagen"
)

func TestRulePersistenceViaFacade(t *testing.T) {
	_, idx := apiFixture(t)
	train, _ := datagen.FreshColumn("locale", 80, 5)
	rule, err := autovalidate.Infer(train, idx, apiOptions())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "rule.json")
	if err := rule.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := autovalidate.LoadRule(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Pattern.String() != rule.Pattern.String() {
		t.Errorf("pattern lost in persistence: %q vs %q", got.Pattern, rule.Pattern)
	}
	drift, _ := datagen.FreshColumn("guid", 200, 6)
	if got.Flags(drift) != rule.Flags(drift) {
		t.Error("reloaded rule behaves differently")
	}
}

func TestParsePatternFacade(t *testing.T) {
	p, err := autovalidate.ParsePattern("<letter>{2}-<letter>{2}")
	if err != nil {
		t.Fatal(err)
	}
	if !p.Match("en-US") || p.Match("en_US") {
		t.Error("parsed pattern misbehaves")
	}
	if _, err := autovalidate.ParsePattern("<junk"); err == nil {
		t.Error("invalid notation should error")
	}
}
