package pattern

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"autovalidate/internal/tokens"
)

// compiledCases are hand-picked pattern/value pairs covering every token
// kind, optionality, and both match polarities.
var compiledCases = []struct {
	pattern string
	value   string
	want    bool
}{
	{"<digit>{2}/<digit>{2}/<digit>{4}", "03/17/2021", true},
	{"<digit>{2}/<digit>{2}/<digit>{4}", "3/17/2021", false},
	{"<letter>{3} <digit>{2} <digit>{4}", "Apr 07 2021", true},
	{"<letter>{3} <digit>{2} <digit>{4}", "Apr 7 2021", false},
	{"<digit>+", "", false},
	{"<digit>+", "0123456789", true},
	{"<digit>{0,3}", "", true},
	{"<digit>{0,3}", "12", true},
	{"<digit>{0,3}", "1234", false},
	{"<digit>{2,+}", "1", false},
	{"<digit>{2,+}", "123456", true},
	{"<alnum>{8}-<alnum>{4}", "deadbeef-cafe", true},
	{"<alnum>{8}-<alnum>{4}", "deadbeef_cafe", false},
	{"<num>", "-12.5", true},
	{"<num>", "+7", true},
	{"<num>", "1.", false},
	{"<num>", ".5", false},
	{"<num>?", "", true},
	{"<num>GB", "12GB", true},
	{"<num>GB", "12.GB", false},
	{"(abc)?<digit>{2}", "42", true},
	{"(abc)?<digit>{2}", "abc42", true},
	{"(abc)?<digit>{2}", "ab42", false},
	{"<digit>{2}:<digit>{2}( PM)?", "09:30 PM", true},
	{"<digit>{2}:<digit>{2}( PM)?", "09:30", true},
	{"<all>+", "anything at all!", true},
	{"<all>+", "", false},
	{"<space>{2}", "  ", true},
	{"<space>{2}", " \t", true},
	{"<symbol>{1}<symbol>{1}", "[]", true},
	{"<symbol>{1}<symbol>{1}", "a]", false},
	// Ambiguous boundaries a backtracker would resolve by search.
	{"<digit>+<digit>+", "12", true},
	{"<digit>+<digit>+", "1", false},
	{"<num><num>", "1-2", true}, // "1" then "-2"
	{"<num><num>", "12", true},
	{"<num><num>", "1", false},
	{"<digit>{1,3}<digit>{1,3}", "1234", true},
	{"<digit>{1,3}<digit>{1,3}", "1234567", false},
}

func TestCompiledMatchCases(t *testing.T) {
	for _, tc := range compiledCases {
		p, err := Parse(tc.pattern)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.pattern, err)
		}
		prog := Compile(p)
		if got := prog.MatchString(tc.value); got != tc.want {
			t.Errorf("Compile(%q).MatchString(%q) = %v (mode %s), want %v",
				tc.pattern, tc.value, got, prog.Mode(), tc.want)
		}
		if got := prog.Match([]byte(tc.value)); got != tc.want {
			t.Errorf("Compile(%q).Match(%q bytes) = %v, want %v", tc.pattern, tc.value, got, tc.want)
		}
		nfa := compileNFA(p)
		if got := nfa.MatchString(tc.value); got != tc.want {
			t.Errorf("pike-VM %q on %q = %v, want %v", tc.pattern, tc.value, got, tc.want)
		}
		if got := p.Match(tc.value); got != tc.want {
			t.Errorf("one-off Match(%q, %q) = %v, want %v", tc.pattern, tc.value, got, tc.want)
		}
		if got := refMatch(p, tc.value); got != tc.want {
			t.Errorf("reference matcher %q on %q = %v, want %v", tc.pattern, tc.value, got, tc.want)
		}
	}
}

func TestTypicalPatternsLowerToDFA(t *testing.T) {
	for _, s := range []string{
		"<digit>{2}/<digit>{2}/<digit>{4}",
		"<letter>{3} <digit>{2} <digit>{4}",
		"<num>",
		"<alnum>{8}-<alnum>{4}-<alnum>{4}-<alnum>{4}-<alnum>{12}",
		"<digit>{2}:<digit>{2}:<digit>{2}( PM)?",
		strings.Repeat("<digit>{1,+}", 8),
	} {
		p, err := Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		if prog := Compile(p); prog.Mode() != "dfa" {
			t.Errorf("Compile(%q).Mode() = %q, want dfa (%d insts)", s, prog.Mode(), prog.NumInsts())
		}
	}
}

func TestHugeCountedRepetitionFallsBackToNFA(t *testing.T) {
	// {0,5000} lowers to ~10k instructions, past the determinization
	// cap; the program must still answer, linearly, via the pike VM.
	p := New(ClassRange(tokens.ClassDigit, 0, 5000), Lit("x"))
	prog := Compile(p)
	if prog.Mode() != "nfa" {
		t.Fatalf("expected NFA fallback, got %s with %d insts", prog.Mode(), prog.NumInsts())
	}
	v := strings.Repeat("7", 4000) + "x"
	if !prog.MatchString(v) {
		t.Error("NFA fallback should match 4000 digits + x")
	}
	if prog.MatchString(strings.Repeat("7", 5001) + "x") {
		t.Error("NFA fallback must enforce the upper bound")
	}
	// The pike VM's step count is bounded by (n+1)·len(insts) — the
	// linearity guarantee a backtracker cannot give.
	_, _, steps := runNFA(prog, v)
	if max := prog.MaxSteps(len(v)); steps > max {
		t.Errorf("pike VM took %d steps, above the %d bound", steps, max)
	}
}

// adversarialPattern is the k adjacent <digit>+ construction that made
// the seed backtracker exponential.
func adversarialPattern(k int) Pattern {
	toks := make([]Tok, k)
	for i := range toks {
		toks[i] = ClassPlus(tokens.ClassDigit)
	}
	return New(toks...)
}

// TestAdversarialBacktrackingBounded is the pathological-pattern
// regression test: 8 adjacent <digit>+ tokens against a 10k-digit value
// that fails at the last byte. A backtracker explores the compositions
// of 10000 into 8 parts (≈10^24 states, far beyond 1s of compute); both
// engines, over both value forms, and the one-off entry must answer in
// bounded time, and agree with the reference matcher.
func TestAdversarialBacktrackingBounded(t *testing.T) {
	p := adversarialPattern(8)
	bad := strings.Repeat("9", 10000) + "!"
	good := bad[:len(bad)-1]

	// The reference is quadratic in the run length, so it answers for a
	// shorter value of the same shape; the engines take the full one.
	for _, v := range []string{bad[len(bad)-1001:], good[:1000]} {
		if want := !strings.HasSuffix(v, "!"); refMatch(p, v) != want {
			t.Fatalf("reference matcher on %d bytes = %v, want %v", len(v), !want, want)
		}
	}

	dfa, nfa := Compile(p), compileNFA(p)
	if dfa.Mode() != "dfa" {
		t.Fatalf("adversarial pattern compiled to %s, want dfa", dfa.Mode())
	}
	// The 500ms ceiling is generous for CI jitter; the observed time is
	// well under 10ms per engine.
	for _, e := range []struct {
		name  string
		match func(string) bool
	}{
		{"dfa/string", dfa.MatchString},
		{"dfa/bytes", func(v string) bool { return dfa.Match([]byte(v)) }},
		{"pike-VM/string", nfa.MatchString},
		{"pike-VM/bytes", func(v string) bool { return nfa.Match([]byte(v)) }},
		{"Pattern.Match", p.Match},
	} {
		start := time.Now()
		if e.match(bad) {
			t.Errorf("%s: adversarial value must not match (trailing '!')", e.name)
		}
		if !e.match(good) {
			t.Errorf("%s: 10k digits must match 8 adjacent <digit>+", e.name)
		}
		if d := time.Since(start); d > 500*time.Millisecond {
			t.Errorf("%s: adversarial match took %v, want bounded time", e.name, d)
		}
	}
}

// randPattern generates a small random pattern.
func randPattern(rng *rand.Rand) Pattern {
	classes := []tokens.Class{
		tokens.ClassDigit, tokens.ClassLetter, tokens.ClassSymbol,
		tokens.ClassSpace, tokens.ClassAlnum, tokens.ClassAny,
	}
	lits := []string{"a", "-", "/", "GB", " PM", "x9"}
	n := 1 + rng.Intn(5)
	toks := make([]Tok, 0, n)
	for i := 0; i < n; i++ {
		switch rng.Intn(4) {
		case 0:
			toks = append(toks, Tok{Kind: KindLiteral, Lit: lits[rng.Intn(len(lits))], Opt: rng.Intn(3) == 0})
		case 1:
			toks = append(toks, Tok{Kind: KindNum, Opt: rng.Intn(3) == 0})
		default:
			c := classes[rng.Intn(len(classes))]
			min := rng.Intn(3)
			max := min + rng.Intn(3)
			if rng.Intn(3) == 0 {
				max = Unbounded
				if min == 0 {
					min = 1
				}
			}
			toks = append(toks, Tok{Kind: KindClass, Class: c, Min: min, Max: max})
		}
	}
	return New(toks...)
}

// randValue generates a value loosely shaped like the pattern so both
// match polarities occur, with random corruption.
func randValue(rng *rand.Rand, p Pattern) string {
	var sb strings.Builder
	for _, t := range p.Toks {
		if rng.Intn(4) == 0 {
			continue // drop a token
		}
		switch t.Kind {
		case KindLiteral:
			sb.WriteString(t.Lit)
		case KindNum:
			if rng.Intn(2) == 0 {
				sb.WriteByte('-')
			}
			for i := 0; i <= rng.Intn(3); i++ {
				sb.WriteByte(byte('0' + rng.Intn(10)))
			}
			if rng.Intn(2) == 0 {
				sb.WriteByte('.')
				sb.WriteByte(byte('0' + rng.Intn(10)))
			}
		default:
			alphabet := map[tokens.Class]string{
				tokens.ClassDigit:  "0123456789",
				tokens.ClassLetter: "abcXYZ",
				tokens.ClassSymbol: "-/!.",
				tokens.ClassSpace:  " \t",
				tokens.ClassAlnum:  "a1B2",
				tokens.ClassAny:    "a1 -",
			}[t.Class]
			reps := t.Min + rng.Intn(3)
			for i := 0; i < reps; i++ {
				sb.WriteByte(alphabet[rng.Intn(len(alphabet))])
			}
		}
	}
	s := sb.String()
	if len(s) > 0 && rng.Intn(3) == 0 {
		// Corrupt one byte.
		b := []byte(s)
		b[rng.Intn(len(b))] = "!qz7."[rng.Intn(5)]
		s = string(b)
	}
	return s
}

// TestCompiledInterpretedEquivalence is the property test: on random
// patterns × random values, the DFA, the pike VM and the one-off entry
// must agree with the reference matcher.
func TestCompiledInterpretedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(20210621))
	for i := 0; i < 3000; i++ {
		p := randPattern(rng)
		prog := Compile(p)
		nfa := compileNFA(p)
		for j := 0; j < 8; j++ {
			v := randValue(rng, p)
			want := refMatch(p, v)
			if got := prog.MatchString(v); got != want {
				t.Fatalf("pattern %q value %q: compiled(%s)=%v reference=%v",
					p.String(), v, prog.Mode(), got, want)
			}
			if got := nfa.MatchString(v); got != want {
				t.Fatalf("pattern %q value %q: pike-VM=%v reference=%v", p.String(), v, got, want)
			}
			if got := p.Match(v); got != want {
				t.Fatalf("pattern %q value %q: one-off Match=%v reference=%v", p.String(), v, got, want)
			}
		}
	}
}

// TestSizeIsWhatTheCompilerEmits: the count Parse holds against the
// ceiling is the compiler's own instruction count — exact, except that
// {0,+} is charged one more (as the + it renders as).
func TestSizeIsWhatTheCompilerEmits(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 3000; i++ {
		p := randPattern(rng)
		if rng.Intn(4) == 0 {
			p.Toks = append(p.Toks, ClassRange(tokens.ClassDigit, 2, 1), Tok{Kind: KindLiteral, Opt: true})
		}
		want := 1 // opMatch
		for _, tk := range p.Toks {
			want += tk.size()
			if tk.Kind == KindClass && tk.Min == 0 && tk.Max == Unbounded {
				want--
			}
		}
		if got := compileNFA(p).NumInsts(); got != want {
			t.Fatalf("pattern %q: %d instructions, sized as %d", p.String(), got, want)
		}
	}
}

// TestLargestProgramStaysSmall is what the ceilings buy: compiling the
// largest patterns Parse accepts, and matching with them, allocates
// under 4 MiB all told (slice growth included) and leaves about 1 MiB
// live — against 1.1 GB for a 3 M-instruction inline rule without the
// ceiling. The last two rows are small programs whose determinisation
// is the cost: 45 and 54 MB without maxDFAWork, which moves them to the
// pike VM.
func TestLargestProgramStaysSmall(t *testing.T) {
	const allocBudget, liveBudget = 4 << 20, 5 << 18 // 4 MiB, 1.25 MiB
	for _, s := range []string{
		"<letter>{32767}",
		"<alnum>{1,16384}",
		strings.Repeat("<num>", 2730),
		strings.Repeat("<all>{0,680}", 3),
		strings.Repeat("<alnum>{0,400}", 5),
	} {
		p, err := Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		prog := Compile(p)
		prog.MatchString("x")
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > allocBudget {
			t.Errorf("%.20q… (%d insts): compile + match allocated %d bytes, budget %d", s, prog.NumInsts(), got, allocBudget)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		if got := int64(after.HeapAlloc) - int64(before.HeapAlloc); got > liveBudget {
			t.Errorf("%.20q… (%d insts): program keeps %d bytes live, budget %d", s, prog.NumInsts(), got, liveBudget)
		}
		runtime.KeepAlive(prog)
	}
}

func TestCompiledEmptyPattern(t *testing.T) {
	prog := Compile(New())
	if !prog.MatchString("") {
		t.Error("empty pattern must match empty value")
	}
	if prog.MatchString("a") {
		t.Error("empty pattern must not match non-empty value")
	}
}

func TestCompiledDeadBound(t *testing.T) {
	// {2,1} matches nothing under the reference; the compiled program
	// must agree rather than treating it as {1,2}.
	p := New(ClassRange(tokens.ClassDigit, 2, 1))
	prog := Compile(p)
	for _, v := range []string{"", "1", "12"} {
		if prog.MatchString(v) != refMatch(p, v) || p.Match(v) != refMatch(p, v) {
			t.Errorf("dead bound disagreement with the reference on %q", v)
		}
		if prog.MatchString(v) {
			t.Errorf("dead bound must not match %q", v)
		}
	}
}

func BenchmarkMatchCompiledDFA(b *testing.B) {
	p, _ := Parse("<digit>{4}-<digit>{2}-<digit>{2} <digit>{2}:<digit>{2}:<digit>{2}")
	prog := Compile(p)
	if prog.Mode() != "dfa" {
		b.Fatal("expected DFA")
	}
	v := []byte("2021-03-17 09:30:12")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !prog.Match(v) {
			b.Fatal("must match")
		}
	}
}

func BenchmarkMatchCompiledNFA(b *testing.B) {
	p, _ := Parse("<digit>{4}-<digit>{2}-<digit>{2} <digit>{2}:<digit>{2}:<digit>{2}")
	prog := compileNFA(p)
	v := []byte("2021-03-17 09:30:12")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !prog.Match(v) {
			b.Fatal("must match")
		}
	}
}
