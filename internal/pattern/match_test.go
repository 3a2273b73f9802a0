package pattern

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"autovalidate/internal/tokens"
)

func TestMatchBasic(t *testing.T) {
	datePat := New(
		ClassN(tokens.ClassLetter, 3), Lit(" "),
		ClassN(tokens.ClassDigit, 2), Lit(" "),
		ClassN(tokens.ClassDigit, 4),
	)
	tests := []struct {
		p    Pattern
		v    string
		want bool
	}{
		{datePat, "Mar 01 2019", true},
		{datePat, "Apr 30 2021", true},
		{datePat, "Mar 1 2019", false},   // one-digit day
		{datePat, "Mar 01 2019 ", false}, // anchored: trailing space
		{datePat, "03 01 2019", false},   // digits where letters expected
		{New(ClassPlus(tokens.ClassDigit)), "12345", true},
		{New(ClassPlus(tokens.ClassDigit)), "", false},
		{New(ClassPlus(tokens.ClassDigit)), "12a", false},
		{New(Num()), "42", true},
		{New(Num()), "-42", true},
		{New(Num()), "3.14", true},
		{New(Num()), "3.", false},
		{New(Num()), ".5", false},
		{New(Num()), "3.1.4", false},
		{New(ClassPlus(tokens.ClassAlnum)), "a1b2", true},
		{New(ClassPlus(tokens.ClassAlnum)), "a1-b2", false},
		{New(ClassPlus(tokens.ClassAny)), "anything at all!", true},
		{New(ClassRange(tokens.ClassDigit, 0, 2)), "", true}, // optional token
		{New(ClassRange(tokens.ClassDigit, 0, 2)), "12", true},
		{New(ClassRange(tokens.ClassDigit, 0, 2)), "123", false},
	}
	for _, tc := range tests {
		if got := tc.p.Match(tc.v); got != tc.want {
			t.Errorf("(%s).Match(%q) = %v, want %v", tc.p, tc.v, got, tc.want)
		}
	}
}

func TestMatchBacktracking(t *testing.T) {
	// <digit>+<digit>{2} must split "1234" as 12|34 (or 1|... with
	// backtracking), not fail after greedily consuming all digits.
	p := New(ClassPlus(tokens.ClassDigit), ClassN(tokens.ClassDigit, 2))
	if !p.Match("1234") {
		t.Error("backtracking across adjacent digit tokens failed")
	}
	if p.Match("12") {
		t.Error("<digit>+<digit>{2} needs at least 3 digits")
	}
	// <num> followed by a literal dot must backtrack out of the float.
	q := New(Num(), Lit("."), ClassPlus(tokens.ClassDigit))
	if !q.Match("3.14") {
		t.Error("<num>.<digit>+ should match 3.14 by backtracking <num> to the integer part")
	}
}

func TestMatchTimestamp(t *testing.T) {
	// The C2 validation pattern from Figure 2(b):
	// <digit>+/<digit>{2}/<digit>{4} <digit>+:<digit>{2}:<digit>{2} <letter>{2}
	p := New(
		ClassPlus(tokens.ClassDigit), Lit("/"),
		ClassN(tokens.ClassDigit, 2), Lit("/"),
		ClassN(tokens.ClassDigit, 4), Lit(" "),
		ClassPlus(tokens.ClassDigit), Lit(":"),
		ClassN(tokens.ClassDigit, 2), Lit(":"),
		ClassN(tokens.ClassDigit, 2), Lit(" "),
		ClassN(tokens.ClassLetter, 2),
	)
	good := []string{"9/12/2019 12:01:32 PM", "10/02/2019 9:15:22 AM", "1/01/2020 0:00:00 AM"}
	bad := []string{"9/12/2019 12:01:32", "9-12-2019 12:01:32 PM", "9/12/19 12:01:32 PM"}
	for _, v := range good {
		if !p.Match(v) {
			t.Errorf("pattern should match %q", v)
		}
	}
	for _, v := range bad {
		if p.Match(v) {
			t.Errorf("pattern should not match %q", v)
		}
	}
}

// matchCount returns how many of the values p matches.
func matchCount(p Pattern, values []string) int {
	misses, _ := CountMisses(Compile(p), values, nil, 0)
	return len(values) - misses
}

func TestImpurityMatchesPaperExample3(t *testing.T) {
	// Example 3: column D with 12 values; h1 (no AM/PM token) has
	// impurity 2/12; h5 (the ideal pattern) has impurity 0.
	d := []string{
		"9/12/2019 12:01:32", "9/12/2019 12:01:33", "9/12/2019 12:01:34",
		"9/12/2019 12:01:35", "9/12/2019 12:01:36", "9/12/2019 12:01:37",
		"9/12/2019 12:01:38", "9/12/2019 12:01:39", "9/12/2019 12:01:40",
		"9/12/2019 12:01:41",
		"9/12/2019 12:01:32 PM", "9/12/2019 12:01:33 PM",
	}
	h1 := New(
		ClassPlus(tokens.ClassDigit), Lit("/"), ClassPlus(tokens.ClassDigit), Lit("/"),
		ClassN(tokens.ClassDigit, 4), Lit(" "),
		ClassPlus(tokens.ClassDigit), Lit(":"), ClassN(tokens.ClassDigit, 2), Lit(":"), ClassN(tokens.ClassDigit, 2),
	)
	h5 := New(
		ClassPlus(tokens.ClassDigit), Lit("/"), ClassPlus(tokens.ClassDigit), Lit("/"),
		ClassN(tokens.ClassDigit, 4), Lit(" "),
		ClassPlus(tokens.ClassDigit), Lit(":"), ClassN(tokens.ClassDigit, 2), Lit(":"), ClassN(tokens.ClassDigit, 2),
		ClassRange(tokens.ClassSpace, 0, 1), ClassRange(tokens.ClassLetter, 0, 2),
	)
	// Imp_D(h), Definition 1: the fraction of D's values h does not match.
	impurity := func(h Pattern) float64 { return float64(len(d)-matchCount(h, d)) / float64(len(d)) }
	if got, want := impurity(h1), 2.0/12.0; got != want {
		t.Errorf("Imp_D(h1) = %v, want %v", got, want)
	}
	if got := impurity(h5); got != 0 {
		t.Errorf("Imp_D(h5) = %v, want 0", got)
	}
}

// Property: a value generated from a pattern always matches the pattern.
func TestGeneratedValueMatchesProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		p := randomPattern(rng)
		v := generate(rng, p)
		if !p.Match(v) {
			t.Fatalf("pattern %s does not match generated value %q", p, v)
		}
	}
}

// Property: if pattern a Generalizes pattern b, then every value
// generated from b matches a.
func TestGeneralizationContainmentProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	checked := 0
	for i := 0; i < 2000 && checked < 200; i++ {
		b := randomPattern(rng)
		a := randomGeneralization(rng, b)
		if !a.Generalizes(b) {
			continue
		}
		checked++
		v := generate(rng, b)
		if !a.Match(v) {
			t.Fatalf("a=%s generalizes b=%s but does not match %q", a, b, v)
		}
	}
	if checked < 50 {
		t.Fatalf("too few generalization pairs exercised: %d", checked)
	}
}

func randomPattern(rng *rand.Rand) Pattern {
	n := 1 + rng.Intn(5)
	toks := make([]Tok, 0, n)
	for i := 0; i < n; i++ {
		switch rng.Intn(5) {
		case 0:
			toks = append(toks, Lit([]string{"/", ":", "-", "Mar", "ID", " "}[rng.Intn(6)]))
		case 1:
			toks = append(toks, ClassN(tokens.ClassDigit, 1+rng.Intn(4)))
		case 2:
			toks = append(toks, ClassPlus(tokens.ClassDigit))
		case 3:
			toks = append(toks, ClassN(tokens.ClassLetter, 1+rng.Intn(3)))
		default:
			toks = append(toks, Num())
		}
	}
	return Pattern{Toks: toks}
}

// randomGeneralization rewrites some tokens of p to ancestors in the
// hierarchy.
func randomGeneralization(rng *rand.Rand, p Pattern) Pattern {
	out := make([]Tok, len(p.Toks))
	copy(out, p.Toks)
	for i, t := range out {
		if rng.Intn(2) == 0 {
			continue
		}
		switch t.Kind {
		case KindLiteral:
			cls := tokens.ClassOf('x')
			uniform := t.Lit != ""
			if uniform {
				cls = tokens.ClassOf(t.Lit[0])
				for j := 1; j < len(t.Lit); j++ {
					if tokens.ClassOf(t.Lit[j]) != cls {
						uniform = false
						break
					}
				}
			}
			if uniform && (cls == tokens.ClassDigit || cls == tokens.ClassLetter) {
				out[i] = ClassN(cls, len(t.Lit))
			}
		case KindClass:
			if t.Max != Unbounded && rng.Intn(2) == 0 {
				out[i] = ClassPlus(t.Class)
			} else if t.Class == tokens.ClassDigit || t.Class == tokens.ClassLetter {
				out[i] = Tok{Kind: KindClass, Class: tokens.ClassAlnum, Min: t.Min, Max: t.Max}
			}
		}
	}
	return Pattern{Toks: out}
}

func generate(rng *rand.Rand, p Pattern) string {
	var sb strings.Builder
	for _, t := range p.Toks {
		switch t.Kind {
		case KindLiteral:
			sb.WriteString(t.Lit)
		case KindNum:
			fmt.Fprintf(&sb, "%d", rng.Intn(10000))
		default:
			n := t.Min
			if t.Max == Unbounded {
				n = t.Min + rng.Intn(4)
				if n == 0 {
					n = 1
				}
			} else if t.Max > t.Min {
				n = t.Min + rng.Intn(t.Max-t.Min+1)
			}
			for j := 0; j < n; j++ {
				switch t.Class {
				case tokens.ClassDigit:
					sb.WriteByte(byte('0' + rng.Intn(10)))
				case tokens.ClassLetter:
					sb.WriteByte(byte('a' + rng.Intn(26)))
				case tokens.ClassAlnum:
					if rng.Intn(2) == 0 {
						sb.WriteByte(byte('0' + rng.Intn(10)))
					} else {
						sb.WriteByte(byte('a' + rng.Intn(26)))
					}
				case tokens.ClassSpace:
					sb.WriteByte(' ')
				case tokens.ClassSymbol:
					sb.WriteByte([]byte{'-', '/', ':', '.'}[rng.Intn(4)])
				default:
					sb.WriteByte(byte('a' + rng.Intn(26)))
				}
			}
		}
	}
	return sb.String()
}

func BenchmarkMatchTimestamp(b *testing.B) {
	p := New(
		ClassPlus(tokens.ClassDigit), Lit("/"),
		ClassN(tokens.ClassDigit, 2), Lit("/"),
		ClassN(tokens.ClassDigit, 4), Lit(" "),
		ClassPlus(tokens.ClassDigit), Lit(":"),
		ClassN(tokens.ClassDigit, 2), Lit(":"),
		ClassN(tokens.ClassDigit, 2), Lit(" "),
		ClassN(tokens.ClassLetter, 2),
	)
	v := "9/12/2019 12:01:32 PM"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !p.Match(v) {
			b.Fatal("must match")
		}
	}
}
