package pattern

import (
	"math/rand"
	"strings"
	"testing"

	"autovalidate/internal/tokens"
)

func TestParseRoundTripKnownPatterns(t *testing.T) {
	cases := []string{
		"<letter>{3} <digit>{2} <digit>{4}",
		"<digit>+/<digit>{2}/<digit>{4} <digit>+:<digit>{2}:<digit>{2} <letter>{2}",
		"<num>",
		"<num>?",
		"<alnum>{8}-<alnum>{4}-<alnum>{4}-<alnum>{4}-<alnum>{12}",
		"<digit>{0,3}",
		"<digit>{2,+}",
		"<space>+",
		"<all>+",
		"Mar <digit>{2} 2019",
		"( PM)?",
		"sess_<alnum>{10}",
		"<symbol>{1}",
	}
	for _, s := range cases {
		p, err := Parse(s)
		if err != nil {
			t.Errorf("Parse(%q): %v", s, err)
			continue
		}
		if got := p.String(); got != s {
			t.Errorf("round trip: Parse(%q).String() = %q", s, got)
		}
	}
}

func TestParseEscapes(t *testing.T) {
	// A literal containing metacharacters survives the round trip.
	orig := New(Lit("a<b(c)d\\e"))
	s := orig.String()
	p, err := Parse(s)
	if err != nil {
		t.Fatalf("Parse(%q): %v", s, err)
	}
	if !p.Match("a<b(c)d\\e") {
		t.Errorf("parsed pattern does not match the original literal")
	}
	if p.String() != s {
		t.Errorf("round trip %q -> %q", s, p.String())
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"<digit>",      // missing quantifier
		"<bogus>{2}",   // unknown class
		"<digit",       // unterminated class
		"<digit>{x}",   // bad quantifier
		"<digit>{1,2",  // unterminated quantifier
		"(abc",         // unterminated group
		"(abc)",        // group without ?
		"abc)",         // stray close
		"abc\\",        // trailing escape
		"<digit>{1,y}", // bad max
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) should fail", s)
		}
	}
}

func TestParseMatchesEquivalently(t *testing.T) {
	// A parsed pattern accepts and rejects the same strings as the
	// original.
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		orig := randomPattern(rng)
		parsed, err := Parse(orig.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", orig.String(), err)
		}
		v := generate(rng, orig)
		if !parsed.Match(v) {
			t.Fatalf("parsed %q rejects %q generated from original", parsed, v)
		}
		// A mutated value must agree between both (spot check).
		mut := v + "x"
		if orig.Match(mut) != parsed.Match(mut) {
			t.Fatalf("disagreement on %q: orig=%v parsed=%v", mut, orig.Match(mut), parsed.Match(mut))
		}
	}
}

func TestParseOptionalClassRange(t *testing.T) {
	p, err := Parse("<letter>{0,2}")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !p.Match("") || !p.Match("ab") || p.Match("abc") {
		t.Error("optional class range mis-parsed")
	}
	if p.Toks[0].Class != tokens.ClassLetter {
		t.Error("wrong class")
	}
}

// TestParseEnforcesProgramCeiling: a pattern that would lower to more
// than maxProgramSize instructions or tokens is refused where it is
// parsed, with an error that names the ceiling; one that lowers to
// exactly the ceiling is accepted.
func TestParseEnforcesProgramCeiling(t *testing.T) {
	const ceiling = "32768"
	for _, tc := range []struct {
		name, pattern string
	}{
		{"{n}", "<digit>+<letter>{3000000}"},
		{"{n} one past", "<letter>{32768}"},
		{"{n} near MaxInt", "<letter>{9223372036854775807}<letter>{9223372036854775807}"},
		{"{n,m}", "<alnum>{2,20000}"},
		{"{n,m} near MaxInt", "<alnum>{0,9223372036854775807}"},
		{"{n,+}", "<all>{40000,+}"},
		{"{n,+} near MaxInt", "<all>{9223372036854775807,+}"},
		{"long literal", strings.Repeat("ab", 16384)},
		{"long optional literal", "(" + strings.Repeat("a", 32767) + ")?"},
		{"many small tokens", strings.Repeat("<num>", 2731)}, // 12 each
		{"more than 65535 tokens", strings.Repeat("<digit>{0}", 70000)},
	} {
		_, err := Parse(tc.pattern)
		if err == nil {
			t.Errorf("%s: Parse accepted a pattern above the ceiling", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), "ceiling of "+ceiling) {
			t.Errorf("%s: error does not name the ceiling: %v", tc.name, err)
		}
		if len(err.Error()) > 200 {
			t.Errorf("%s: error echoes the pattern (%d bytes)", tc.name, len(err.Error()))
		}
	}
	for _, tc := range []struct {
		pattern string
		insts   int
	}{
		{"<letter>{32767}", 32768},                        // 32767 bytes + match
		{"<alnum>{1,16384}", 32768},                       // 1 + 2·16383 + match
		{"<all>{32764,+}", 32768},                         // 32764 + split, byte, jmp + match
		{strings.Repeat("a", 32767), 32768},               // one literal + match
		{strings.Repeat("<digit>{0}", 32768), 1},          // the token ceiling; only the match
		{strings.Repeat("<num>", 2730) + "<all>+", 32765}, // 2730·12 + 4 + match
	} {
		p, err := Parse(tc.pattern)
		if err != nil {
			t.Errorf("Parse(%.20q…) at the ceiling: %v", tc.pattern, err)
			continue
		}
		if n := compileNFA(p).NumInsts(); n != tc.insts {
			t.Errorf("%.20q… lowers to %d instructions, want %d", tc.pattern, n, tc.insts)
		}
	}
}
