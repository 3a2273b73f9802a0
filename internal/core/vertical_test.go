package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"autovalidate/internal/pattern"
	"autovalidate/internal/tokens"
	"autovalidate/internal/validate"
)

func TestVerticalSegmentsConcatenateToFullPattern(t *testing.T) {
	idx := testIndex(t)
	vals := fresh(t, "composite_booking", 60, 12)
	rule, err := Infer(vals, idx, testOptions(FMDVV))
	if err != nil {
		t.Fatal(err)
	}
	concat := pattern.Concat(rule.Segments...)
	if concat.String() != rule.Pattern.String() {
		t.Errorf("segments %q do not concatenate to rule pattern %q", concat, rule.Pattern)
	}
}

func TestVerticalDPPrefersUnsplitWhenCheaper(t *testing.T) {
	// A narrow single-domain column must come out of FMDV-V identical
	// to basic FMDV: the DP's no-split leaf is the whole column.
	idx := testIndex(t)
	vals := fresh(t, "locale", 80, 13)
	basic, err := Infer(vals, idx, testOptions(FMDV))
	if err != nil {
		t.Fatal(err)
	}
	vert, err := Infer(vals, idx, testOptions(FMDVV))
	if err != nil {
		t.Fatal(err)
	}
	if vert.EstimatedFPR > basic.EstimatedFPR+fprEpsilon {
		t.Errorf("FMDV-V (%v) should not be worse than FMDV (%v) on a narrow column",
			vert.EstimatedFPR, basic.EstimatedFPR)
	}
	for _, v := range vals {
		if !vert.Pattern.Match(v) {
			t.Fatalf("vertical pattern %q misses training value %q", vert.Pattern, v)
		}
	}
}

func TestVerticalOptionalSuffixViaAlignment(t *testing.T) {
	// Half the values carry a " PM" suffix (within θ nothing can be
	// cut), so the alignment produces gap columns and the rule must
	// accept both forms.
	idx := testIndex(t)
	vals := make([]string, 80)
	for i := range vals {
		if i%2 == 0 {
			vals[i] = fmt.Sprintf("%d:%02d:%02d", 1+i%12, i%60, (i*7)%60)
		} else {
			vals[i] = fmt.Sprintf("%d:%02d:%02d PM", 1+i%12, i%60, (i*7)%60)
		}
	}
	opt := testOptions(FMDVVH)
	rule, err := Infer(vals, idx, opt)
	if err != nil {
		t.Fatalf("mixed optional-suffix column should be inferable: %v", err)
	}
	if !rule.Pattern.Match("9:15:22") || !rule.Pattern.Match("9:15:22 PM") {
		t.Errorf("pattern %q should accept both suffix forms", rule.Pattern)
	}
}

// τ ≤ 0 means no cap (Options.Tau), for the DP's leaves as for the
// enumerator: on a date column no wider than 8 runs, FMDV-V and FMDV-VH
// at τ = 0 infer what they infer at τ = 8, not "no feasible
// segmentation".
func TestVerticalNoTauCapInfersAsWide(t *testing.T) {
	idx := testIndex(t)
	vals := fresh(t, "date_iso", 60, 14)
	for _, st := range []Strategy{FMDVV, FMDVVH} {
		opt := testOptions(st)
		opt.Tau = 8
		want, err := Infer(vals, idx, opt)
		if err != nil {
			t.Fatalf("%s at τ=8: %v", st, err)
		}
		opt.Tau = 0
		got, err := Infer(vals, idx, opt)
		if err != nil {
			t.Fatalf("%s at τ=0: %v; at τ=8 %q", st, err, want.Pattern)
		}
		if d := ruleDiff(got, want); d != "" {
			t.Errorf("%s at τ=0: %s", st, d)
		}
	}
}

func TestVerticalAlignmentCapRejectsMonsterColumns(t *testing.T) {
	idx := testIndex(t)
	long := strings.Repeat("ab-", 60) + "ab" // 241 tokens
	vals := []string{long, long, long}
	opt := testOptions(FMDVV)
	if _, err := Infer(vals, idx, opt); !errors.Is(err, ErrNoFeasible) {
		t.Errorf("columns beyond MaxAlignCols should be infeasible, got %v", err)
	}
}

func TestVerticalMergedTokenizationWinsOnGuids(t *testing.T) {
	idx := testIndex(t)
	vals := fresh(t, "guid", 80, 14)
	rule, err := Infer(vals, idx, testOptions(FMDVVH))
	if err != nil {
		t.Fatal(err)
	}
	// The merged tokenization should produce the 9-token GUID skeleton
	// (alnum blocks joined by dashes), not a fine-grained mess.
	if got := len(rule.Pattern.Toks); got > 9 {
		t.Errorf("GUID pattern has %d tokens (%q); merged tokenization should cap at 9", got, rule.Pattern)
	}
	for _, v := range fresh(t, "guid", 100, 15) {
		if !rule.Pattern.Match(v) {
			t.Errorf("GUID pattern %q misses %q", rule.Pattern, v)
		}
	}
}

// isSeparator reports whether s is a non-empty run of punctuation and
// whitespace: the segments the leaf's separator fast path admits when
// every text is s.
func isSeparator(s string) bool {
	for i := 0; i < len(s); i++ {
		switch tokens.ClassOf(s[i]) {
		case tokens.ClassSymbol, tokens.ClassSpace:
		default:
			return false
		}
	}
	return s != ""
}

func TestSeparatorFastPath(t *testing.T) {
	if !isSeparator("|") || !isSeparator(" ") || !isSeparator("[") {
		t.Error("punctuation should be separators")
	}
	if isSeparator("a") || isSeparator("1") || isSeparator("") {
		t.Error("non-punctuation should not be separators")
	}
	if !allEqual([]string{"|", "|"}) || allEqual([]string{"|", "-"}) {
		t.Error("allEqual broken")
	}
}

// lexColumn's offsets and merged-run index locate every run of both
// tokenizations in its value.
func TestLexColumnLocatesRuns(t *testing.T) {
	col := lexColumn([]string{"a1-b2c3", "", "a1-b2c3", "--", "número42 x", "0a1b2c3d4e5f"})
	if col.total != 6 || len(col.uniq) != 5 || col.weights[0] != 2 {
		t.Fatalf("dedupe: uniq %q weights %v total %d", col.uniq, col.weights, col.total)
	}
	for i, v := range col.uniq {
		off, first := col.off[i], col.first[i]
		if len(off) != len(col.fine[i])+1 || len(first) != len(col.merged[i])+1 {
			t.Fatalf("%q: %d offsets for %d fine runs, %d first-run indexes for %d merged runs",
				v, len(off), len(col.fine[i]), len(first), len(col.merged[i]))
		}
		for k, r := range col.fine[i] {
			if v[off[k]:off[k+1]] != r.Text {
				t.Errorf("%q: fine run %d is %q, offsets give %q", v, k, r.Text, v[off[k]:off[k+1]])
			}
		}
		for j, m := range col.merged[i] {
			if got := v[off[first[j]]:off[first[j+1]]]; got != m.Text {
				t.Errorf("%q: merged run %d is %q, fine runs %d..%d give %q", v, j, m.Text, first[j], first[j+1], got)
			}
		}
	}
}

func TestGeneralityOrdering(t *testing.T) {
	cases := []struct {
		less, more string
	}{
		{"Mar", "<letter>{3}"},
		{"<letter>{3}", "<letter>+"},
		{"<letter>+", "<alnum>+"},
		{"<digit>{2}", "<num>"},
	}
	for _, c := range cases {
		a, err := pattern.Parse(c.less)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.less, err)
		}
		b, err := pattern.Parse(c.more)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.more, err)
		}
		if generality(a) >= generality(b) {
			t.Errorf("generality(%q)=%d should be < generality(%q)=%d",
				c.less, generality(a), c.more, generality(b))
		}
	}
}

func TestRuleSegmentsRoundTripThroughSave(t *testing.T) {
	idx := testIndex(t)
	vals := fresh(t, "timestamp_us", 80, 16)
	rule, err := Infer(vals, idx, testOptions(FMDVVH))
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/rule.json"
	if err := rule.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := validate.LoadRule(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Segments) != len(rule.Segments) {
		t.Errorf("segments lost: %d vs %d", len(got.Segments), len(rule.Segments))
	}
	for _, v := range vals {
		if got.Pattern.Match(v) != rule.Pattern.Match(v) {
			t.Fatalf("reloaded rule disagrees on %q", v)
		}
	}
}
