package tokens

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestLexBasic(t *testing.T) {
	tests := []struct {
		in   string
		want []Run
	}{
		{"", nil},
		{"abc", []Run{{ClassLetter, "abc"}}},
		{"123", []Run{{ClassDigit, "123"}}},
		{"9:07", []Run{{ClassDigit, "9"}, {ClassSymbol, ":"}, {ClassDigit, "07"}}},
		{"Mar 01 2019", []Run{
			{ClassLetter, "Mar"}, {ClassSpace, " "},
			{ClassDigit, "01"}, {ClassSpace, " "},
			{ClassDigit, "2019"},
		}},
		{"a--b", []Run{
			{ClassLetter, "a"}, {ClassSymbol, "-"}, {ClassSymbol, "-"}, {ClassLetter, "b"},
		}},
		{"  x", []Run{{ClassSpace, "  "}, {ClassLetter, "x"}}},
		{"en-US", []Run{{ClassLetter, "en"}, {ClassSymbol, "-"}, {ClassLetter, "US"}}},
	}
	for _, tc := range tests {
		got := Lex(tc.in)
		if len(got) != len(tc.want) {
			t.Errorf("Lex(%q) = %v, want %v", tc.in, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("Lex(%q)[%d] = %v, want %v", tc.in, i, got[i], tc.want[i])
			}
		}
	}
}

func TestLexSymbolsAreSingleChars(t *testing.T) {
	runs := Lex("a[[]]b")
	want := 6 // a, [, [, ], ], b
	if len(runs) != want {
		t.Fatalf("Lex(%q) produced %d runs %v, want %d", "a[[]]b", len(runs), runs, want)
	}
	for _, r := range runs[1:5] {
		if r.Class != ClassSymbol || len(r.Text) != 1 {
			t.Errorf("symbol run %v should be a single character", r)
		}
	}
}

func TestCount(t *testing.T) {
	tests := []struct {
		in   string
		want int
	}{
		{"", 0},
		{"abc", 1},
		{"Mar 01 2019", 5},
		{"9/07/2010 9:07:32 AM", 13}, // the paper's 13-token date-time example
		{"0.1", 3},
	}
	for _, tc := range tests {
		if got := Count(tc.in); got != tc.want {
			t.Errorf("Count(%q) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// Count is a counting scan of its own; it must agree with the lexer on
// every input the lexer's tests use.
func TestCountAgreesWithLex(t *testing.T) {
	inputs := []string{
		"", "abc", "123", "9:07", "Mar 01 2019", "a--b", "  x", "en-US", "a[[]]b",
		"9/07/2010 9:07:32 AM", "0.1", "--", " \t ", "a1b2", "\xc3\xa9t\xc3\xa9 2019",
	}
	rng := rand.New(rand.NewSource(7))
	alphabet := "abzAZ019 -/:._\t"
	for i := 0; i < 500; i++ {
		b := make([]byte, rng.Intn(30))
		for j := range b {
			b[j] = alphabet[rng.Intn(len(alphabet))]
		}
		inputs = append(inputs, string(b))
	}
	for _, in := range inputs {
		if got, want := Count(in), len(Lex(in)); got != want {
			t.Errorf("Count(%q) = %d, Lex yields %d runs", in, got, want)
		}
	}
}

// AppendLex lexes a column into one slab: each value's runs follow the
// runs before them, equal to Lex of the value, and leave those before
// them as they were.
func TestAppendLexFillsOneSlab(t *testing.T) {
	column := []string{"9:07 PM", "", "a1b2", "--", "\xc3\xa9t\xc3\xa9 2019", "x"}
	var slab []Run
	ends := []int{0}
	for _, v := range column {
		slab = AppendLex(slab, v)
		ends = append(ends, len(slab))
	}
	for i, v := range column {
		if got, want := slab[ends[i]:ends[i+1]], Lex(v); !slices.Equal(got, want) {
			t.Errorf("value %d %q: slab holds %v, Lex gives %v", i, v, got, want)
		}
	}
}

func TestShape(t *testing.T) {
	if got := Shape(Lex("9:07")); got != "ds:d" {
		t.Errorf("Shape(9:07) = %q, want ds:d", got)
	}
	if Shape(Lex("1/2")) == Shape(Lex("1-2")) {
		t.Error("Shape should distinguish symbol identities")
	}
	if ClassShape(Lex("1/2")) != ClassShape(Lex("1-2")) {
		t.Error("ClassShape should ignore symbol identities")
	}
}

// Symbols spells each run as Shape does, the merged <alnum> runs too.
func TestSymbolsSpellShape(t *testing.T) {
	for _, v := range []string{"9:07", "1/2", "1-2", "", "ab12-CD 9.x", "número1-ß\xff"} {
		runs := Lex(v)
		for _, runs := range [][]Run{runs, MergeAlnum(nil, v, runs)} {
			if got, want := strings.Join(Symbols(runs), ""), Shape(runs); got != want {
				t.Errorf("Symbols(%v) joined = %q, want Shape's %q", runs, got, want)
			}
		}
	}
}

func TestClassOf(t *testing.T) {
	cases := map[byte]Class{
		'0': ClassDigit, '9': ClassDigit,
		'a': ClassLetter, 'Z': ClassLetter,
		' ': ClassSpace, '\t': ClassSpace,
		'-': ClassSymbol, '/': ClassSymbol, ':': ClassSymbol, '.': ClassSymbol,
	}
	for b, want := range cases {
		if got := ClassOf(b); got != want {
			t.Errorf("ClassOf(%q) = %v, want %v", b, got, want)
		}
	}
}

func TestGeneralizes(t *testing.T) {
	if !ClassAny.Generalizes(ClassDigit) || !ClassAny.Generalizes(ClassSymbol) {
		t.Error("<all> must generalize every class")
	}
	if !ClassAlnum.Generalizes(ClassDigit) || !ClassAlnum.Generalizes(ClassLetter) {
		t.Error("<alnum> must generalize digit and letter")
	}
	if ClassAlnum.Generalizes(ClassSymbol) {
		t.Error("<alnum> must not generalize symbol")
	}
	if ClassDigit.Generalizes(ClassLetter) {
		t.Error("<digit> must not generalize <letter>")
	}
	if !ClassDigit.Generalizes(ClassDigit) {
		t.Error("Generalizes must be reflexive")
	}
}

// Property: concatenating run texts reproduces the input (lossless lexing).
func TestLexRoundTripProperty(t *testing.T) {
	f := func(s string) bool {
		// Restrict to ASCII-ish bytes; Lex is byte-oriented.
		b := []byte(s)
		for i := range b {
			b[i] &= 0x7f
			if b[i] == 0 {
				b[i] = 'x'
			}
		}
		in := string(b)
		return Join(Lex(in)) == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: every run is non-empty and uniform in class, and adjacent
// non-symbol runs have different classes (maximality).
func TestLexMaximalityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	alphabet := "abzAZ019 -/:._"
	for i := 0; i < 500; i++ {
		n := rng.Intn(30)
		var sb strings.Builder
		for j := 0; j < n; j++ {
			sb.WriteByte(alphabet[rng.Intn(len(alphabet))])
		}
		in := sb.String()
		runs := Lex(in)
		for k, r := range runs {
			if r.Text == "" {
				t.Fatalf("empty run in Lex(%q)", in)
			}
			for i := 0; i < len(r.Text); i++ {
				if ClassOf(r.Text[i]) != r.Class {
					t.Fatalf("mixed-class run %v in Lex(%q)", r, in)
				}
			}
			if k > 0 && runs[k-1].Class == r.Class && r.Class != ClassSymbol {
				t.Fatalf("non-maximal adjacent runs %v | %v in Lex(%q)", runs[k-1], r, in)
			}
		}
	}
}

// concatMergeAlnum is MergeAlnum as it was while it built each merged
// text by concatenation, kept as the reference for the slicing one.
func concatMergeAlnum(runs []Run) []Run {
	out := make([]Run, 0, len(runs))
	for _, r := range runs {
		c := r.Class
		if c == ClassDigit || c == ClassLetter {
			c = ClassAlnum
		}
		if n := len(out); n > 0 && out[n-1].Class == ClassAlnum && c == ClassAlnum {
			out[n-1].Text += r.Text
			continue
		}
		out = append(out, Run{Class: c, Text: r.Text})
	}
	return out
}

func TestMergeAlnumSlicesTheValue(t *testing.T) {
	for _, v := range []string{
		"",
		"abc",
		"123",
		"a1b2c3",
		"0a1b2c3d4e5f60718293a4b5c6d7e8f90a1b2c3d4e5f60718293a4b5c6d7e8f9", // one long alnum run
		"0a1b2c3d-0a1b-4c2d",
		"9/07/2010 9:07:32 AM",
		"srv01.dc2.example.com",
		"--a1--",
		" x9 ",
		"a-1",
		"número42-ß7", // non-ASCII letters are letter bytes
		"日本1語\xff9",   // incl. an invalid UTF-8 byte
		"[12|ab3/4cd]",
	} {
		fine := Lex(v)
		got := MergeAlnum(nil, v, fine)
		want := concatMergeAlnum(fine)
		if len(got) != len(want) {
			t.Errorf("MergeAlnum(%q) = %v, want %v", v, got, want)
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("MergeAlnum(%q)[%d] = %v, want %v", v, i, got[i], want[i])
			}
		}
		if Join(got) != v {
			t.Errorf("Join(MergeAlnum(%q)) = %q", v, Join(got))
		}
	}
}

// Appending to a non-empty dst leaves what is there alone: a slab of
// several values' merged runs never merges across a value boundary.
func TestMergeAlnumAppends(t *testing.T) {
	slab := MergeAlnum(nil, "ab1", Lex("ab1"))
	slab = MergeAlnum(slab, "2c-d", Lex("2c-d"))
	want := []Run{{ClassAlnum, "ab1"}, {ClassAlnum, "2c"}, {ClassSymbol, "-"}, {ClassAlnum, "d"}}
	if len(slab) != len(want) {
		t.Fatalf("slab = %v, want %v", slab, want)
	}
	for i := range slab {
		if slab[i] != want[i] {
			t.Errorf("slab[%d] = %v, want %v", i, slab[i], want[i])
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		slab = MergeAlnum(slab[:0], "ab1-", []Run{{ClassLetter, "ab"}, {ClassDigit, "1"}, {ClassSymbol, "-"}})
	})
	if allocs != 0 {
		t.Errorf("MergeAlnum into a slab with room allocates %.0f objects", allocs)
	}
}

func BenchmarkLex(b *testing.B) {
	v := "9/07/2010 9:07:32 AM"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Lex(v)
	}
}
