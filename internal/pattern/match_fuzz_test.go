package pattern

import (
	"strings"
	"testing"
)

// FuzzMatchAgree hardens the matcher against the reference: for any
// parseable pattern and any value, the DFA and pike-VM programs — each
// over a string and over a byte slice — and the one-off Pattern.Match
// must agree with refMatch, Explain must agree with Match in both
// forms, and none may panic or spin. The seeds include the adversarial
// k×<digit>+ construction that made the seed matcher exponential.
func FuzzMatchAgree(f *testing.F) {
	f.Add("<digit>{2}/<digit>{2}/<digit>{4}", "03/17/2021")
	f.Add("<num>GB", "-12.5GB")
	f.Add("(abc)?<digit>{2}", "abc42")
	f.Add("<digit>{2}:<digit>{2}( PM)?", "09:30 PM")
	f.Add("<alnum>+-<alnum>{8}", "a-deadbeef")
	f.Add("<digit>{0,3}<letter>+", "12ab")
	f.Add("<num><num>", "1-2")
	f.Add("<all>+", "")
	// Pathological: adjacent unbounded digit runs against a long digit
	// string failing at the end.
	f.Add(strings.Repeat("<digit>{1,+}", 6), strings.Repeat("9", 200)+"!")
	f.Fuzz(func(t *testing.T, pat, value string) {
		if len(pat) > 256 || len(value) > 4096 {
			return // keep per-case work bounded
		}
		p, err := Parse(pat)
		if err != nil {
			return
		}
		want := refMatch(p, value)
		for _, prog := range []*Program{Compile(p), compileNFA(p)} {
			if got := Match(prog, value); got != want {
				t.Fatalf("pattern %q value %q: %s over string=%v, reference=%v",
					p.String(), value, prog.Mode(), got, want)
			}
			if got := Match(prog, []byte(value)); got != want {
				t.Fatalf("pattern %q value %q: %s over bytes=%v, reference=%v",
					p.String(), value, prog.Mode(), got, want)
			}
			if _, ok := Explain(prog, value); ok != want {
				t.Fatalf("pattern %q value %q: %s Explain(string) ok=%v, reference=%v",
					p.String(), value, prog.Mode(), ok, want)
			}
			if _, ok := Explain(prog, []byte(value)); ok != want {
				t.Fatalf("pattern %q value %q: %s Explain(bytes) ok=%v, reference=%v",
					p.String(), value, prog.Mode(), ok, want)
			}
		}
		if got := p.Match(value); got != want {
			t.Fatalf("pattern %q value %q: one-off Match=%v, reference=%v", p.String(), value, got, want)
		}
	})
}
