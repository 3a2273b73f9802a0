package validate

import (
	"reflect"
	"strings"
	"testing"

	"autovalidate/internal/pattern"
	"autovalidate/internal/tokens"
)

func isoDateRule() *Rule {
	return &Rule{
		Pattern: pattern.New(
			pattern.ClassN(tokens.ClassDigit, 4), pattern.Lit("-"),
			pattern.ClassN(tokens.ClassDigit, 2), pattern.Lit("-"),
			pattern.ClassN(tokens.ClassDigit, 2),
		),
		TrainTotal: 100,
	}
}

func TestAttributeClassifiesMisses(t *testing.T) {
	r := isoDateRule()
	values := [][]byte{
		[]byte("2026-08-08"),  // conforms
		[]byte("2026/08/08"),  // charset at token 1 (the first "-")
		[]byte("2025/01/01"),  // same class
		[]byte("2026-08"),     // too short
		[]byte("2026-08-089"), // too long
		[]byte("2026-08-07"),  // conforms
	}
	attr := r.Attribute(values, MaxAttributionSamples)
	if attr == nil {
		t.Fatal("Attribute returned nil for a batch with misses")
	}
	if attr.Misses != 4 {
		t.Fatalf("Misses = %d, want 4", attr.Misses)
	}
	if len(attr.Classes) != 3 {
		t.Fatalf("got %d classes, want 3: %+v", len(attr.Classes), attr.Classes)
	}
	// Most frequent first: the two charset misses.
	top := attr.Classes[0]
	if top.Kind != "charset" || top.Token != 1 || top.Count != 2 || top.Pos != 4 {
		t.Errorf("top class = %+v, want charset at token 1 pos 4 count 2", top)
	}
	if top.TokenStr == "" {
		t.Error("top class has empty token rendering")
	}
	for _, c := range attr.Classes {
		for _, s := range c.Samples {
			if strings.ContainsAny(s, "012345678") || strings.ContainsAny(s, "abcdefgh") {
				t.Errorf("sample %q leaks raw content", s)
			}
		}
	}
	// The too-long miss attributes past the pattern's end.
	var sawEnd bool
	for _, c := range attr.Classes {
		if c.Kind == "length" && c.TokenStr == "$" {
			sawEnd = true
		}
	}
	if !sawEnd {
		t.Errorf("no end-of-pattern length class in %+v", attr.Classes)
	}
}

func TestAttributeNilWhenAllConform(t *testing.T) {
	r := isoDateRule()
	if attr := r.Attribute([][]byte{[]byte("2026-08-08")}, 3); attr != nil {
		t.Fatalf("Attribute = %+v, want nil for a conforming batch", attr)
	}
}

// TestAttributeMatchesAcrossForms is the front-agreement check for the
// generic entry: a string batch and the same batch as byte slices must
// attribute to identical classes, counts, positions and samples.
func TestAttributeMatchesAcrossForms(t *testing.T) {
	r := isoDateRule()
	strs := []string{"2026-08-08", "garbage", "2026-08", "20x6-01-01", "2026-08-088", "", "9999/99/99"}
	bytes := make([][]byte, len(strs))
	for i, s := range strs {
		bytes[i] = []byte(s)
	}
	a, b := Attribute(r, strs, 3), r.Attribute(bytes, 3)
	if a == nil || b == nil {
		t.Fatal("nil attribution")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("string/byte attribution diverge:\n%+v\n%+v", a, b)
	}
}

func TestRedact(t *testing.T) {
	cases := map[string]string{
		"2026-08-08":  "9999-99-99",
		"Alice Smith": "Xxxxx Xxxxx",
		"a+b=c; 7%":   "x+x=x; 9%",
		"caf\xc3\xa9": "xxx??",
		"":            "",
	}
	for in, want := range cases {
		if got := Redact(in); got != want {
			t.Errorf("Redact(%q) = %q, want %q", in, got, want)
		}
	}
	long := strings.Repeat("a", 100)
	got := Redact(long)
	if len(got) != maxRedactedLen+3 || !strings.HasSuffix(got, "...") {
		t.Errorf("Redact(long) = %q; want %d masked bytes + ellipsis", got, maxRedactedLen)
	}
}
