package registry

import (
	"fmt"
	"sync"
	"testing"

	"autovalidate/internal/core"
	"autovalidate/internal/domain"
	"autovalidate/internal/pattern"
	"autovalidate/internal/stats"
	"autovalidate/internal/validate"
)

// testRule builds a small but fully populated rule around the given
// pattern string.
func testRule(t *testing.T, pat string) *validate.Rule {
	t.Helper()
	p, err := pattern.Parse(pat)
	if err != nil {
		t.Fatalf("parsing %q: %v", pat, err)
	}
	return &validate.Rule{
		Pattern:            p,
		EstimatedFPR:       0.012,
		TrainNonConforming: 3,
		TrainTotal:         200,
		Test:               stats.Fisher,
		Alpha:              0.01,
		Strategy:           "FMDV-VH",
	}
}

func testOptions() core.Options {
	opt := core.DefaultOptions()
	opt.M = 5
	return opt
}

func TestPutGetVersioning(t *testing.T) {
	r := New()
	if _, err := r.PutDomain("", testRule(t, "<digit>+"), testOptions(), 0, domain.Detection{}); err == nil {
		t.Error("empty name should be rejected")
	}
	if _, err := r.PutDomain("s", nil, testOptions(), 0, domain.Detection{}); err == nil {
		t.Error("nil rule should be rejected")
	}

	v1, err := r.PutDomain("sales/locale", testRule(t, "<digit>+"), testOptions(), 0, domain.Detection{})
	if err != nil {
		t.Fatal(err)
	}
	if v1.Version != 1 {
		t.Errorf("first version = %d, want 1", v1.Version)
	}
	v2, err := r.PutDomain("sales/locale", testRule(t, "<letter>{2}-<letter>{2}"), testOptions(), 3, domain.Detection{})
	if err != nil {
		t.Fatal(err)
	}
	if v2.Version != 2 || v2.IndexGeneration != 3 {
		t.Errorf("second version = %+v, want version 2 at generation 3", v2)
	}

	got, ok := r.Get("sales/locale")
	if !ok || got.Version != 2 {
		t.Errorf("Get returned version %d, want latest (2)", got.Version)
	}
	old, ok := r.GetVersion("sales/locale", 1)
	if !ok || old.Version != 1 || old.Rule.Pattern.String() != "<digit>+" {
		t.Errorf("old version unreadable: %+v ok=%v", old, ok)
	}
	if _, ok := r.GetVersion("sales/locale", 3); ok {
		t.Error("nonexistent version should not resolve")
	}
	if n := r.Versions("sales/locale"); n != 2 {
		t.Errorf("Versions = %d, want 2", n)
	}
	if _, ok := r.Get("nope"); ok {
		t.Error("unknown stream should not resolve")
	}
}

func TestDeleteAndNames(t *testing.T) {
	r := New()
	for _, name := range []string{"b", "a", "c"} {
		if _, err := r.PutDomain(name, testRule(t, "<digit>+"), testOptions(), 0, domain.Detection{}); err != nil {
			t.Fatal(err)
		}
	}
	names := r.Names()
	if len(names) != 3 || names[0] != "a" || names[2] != "c" {
		t.Errorf("Names = %v, want sorted [a b c]", names)
	}
	if !r.Delete("b") {
		t.Error("Delete of existing stream returned false")
	}
	if r.Delete("b") {
		t.Error("second Delete returned true")
	}
	if r.Len() != 2 {
		t.Errorf("Len = %d, want 2", r.Len())
	}
}

func TestMarkStale(t *testing.T) {
	r := New()
	r.PutDomain("old", testRule(t, "<digit>+"), testOptions(), 0, domain.Detection{})
	r.PutDomain("fresh", testRule(t, "<letter>+"), testOptions(), 2, domain.Detection{})
	if marked := r.MarkStale(2); marked != 1 {
		t.Errorf("MarkStale(2) marked %d, want 1 (only the gen-0 stream)", marked)
	}
	if s, _ := r.Get("old"); !s.Stale {
		t.Error("gen-0 stream should be stale at generation 2")
	}
	if s, _ := r.Get("fresh"); s.Stale {
		t.Error("gen-2 stream should not be stale at generation 2")
	}
	// Idempotent: already-stale streams are not re-counted.
	if marked := r.MarkStale(3); marked != 1 {
		t.Errorf("MarkStale(3) marked %d, want 1 (only the fresh stream)", marked)
	}
	// Re-registration at the current generation clears staleness.
	r.PutDomain("old", testRule(t, "<digit>{4}"), testOptions(), 3, domain.Detection{})
	if s, _ := r.Get("old"); s.Stale || s.Version != 2 {
		t.Errorf("re-registered stream = %+v, want fresh version 2", s)
	}
}

// TestConcurrentPutGetMarkStale races readers, writers, and staleness
// marking; run under -race it proves the snapshot-copy discipline.
func TestConcurrentPutGetMarkStale(t *testing.T) {
	r := New()
	rule := testRule(t, "<digit>+")
	opt := testOptions()
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("stream-%d", w%4)
			for i := 0; i < 200; i++ {
				switch i % 4 {
				case 0:
					if _, err := r.PutDomain(name, rule, opt, uint64(i), domain.Detection{}); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if s, ok := r.Get(name); ok && s.Name != name {
						t.Errorf("Get(%q) returned %q", name, s.Name)
						return
					}
				case 2:
					r.MarkStale(uint64(i))
				default:
					r.Names()
					r.Versions(name)
				}
			}
		}(w)
	}
	wg.Wait()
}
