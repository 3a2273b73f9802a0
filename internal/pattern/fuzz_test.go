package pattern

import "testing"

// FuzzParsePattern hardens the canonical-notation parser: arbitrary input
// must either parse or return an error — never panic — and any input that
// parses must render to a canonical form that is a fixpoint of
// Parse∘String. That fixpoint is what makes rendered patterns usable as
// index keys: two structurally equal patterns always collide on one key.
func FuzzParsePattern(f *testing.F) {
	for _, seed := range []string{
		"",
		"<digit>+",
		"<digit>{2}",
		"<digit>{1,3}",
		"<digit>{2,+}",
		"<letter>{3} <digit>{2} <digit>{4}",
		"<alnum>+-<alnum>{8}",
		"<symbol>{1}<space>{2}",
		"<all>+",
		"<num>",
		"<num>?",
		"(abc)?",
		"( PM)?<digit>{2}:<digit>{2}",
		`\<not-a-class\>`,
		`lit\\eral`,
		`()?`,
		"Mar/<digit>{2}/<digit>{4}",
		"<digit>{0,+}",
		"<letter>{10000000000000000000}",
		"<digit>+<letter>{3000000}", // above the program ceiling
		"<all>{0,+}<digit>{32764}",  // one above it once {0,+} renders as +
		"<digit>{-1}",
		"<digit>{2,1}",
		"<bogus>+",
		"<digit>",
		"(never closed",
		`trailing\`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := Parse(s)
		if err != nil {
			return
		}
		canon := p.String()
		q, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not re-parse: %v", canon, s, err)
		}
		if again := q.String(); again != canon {
			t.Fatalf("canonical form is not a fixpoint: %q -> %q -> %q", s, canon, again)
		}
		// Token counting must be stable across the round trip (the
		// index stores it per entry and τ-caps depend on it).
		if p.TokenCount() != q.TokenCount() {
			t.Fatalf("token count changed across round trip of %q: %d vs %d",
				s, p.TokenCount(), q.TokenCount())
		}
	})
}
