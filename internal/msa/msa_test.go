package msa

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func split(s string) []string {
	out := make([]string, len(s))
	for i := 0; i < len(s); i++ {
		out[i] = string(s[i])
	}
	return out
}

// checkValid verifies structural invariants of an alignment: each row
// covers its sequence's indexes in order, and every column has at least
// one non-gap entry.
func checkValid(t *testing.T, a Alignment, seqs [][]string) {
	t.Helper()
	if len(a.Rows) != len(seqs) {
		t.Fatalf("alignment has %d rows for %d sequences", len(a.Rows), len(seqs))
	}
	for i, row := range a.Rows {
		if len(row) != a.Cols {
			t.Fatalf("row %d has %d cols, want %d", i, len(row), a.Cols)
		}
		next := 0
		for _, v := range row {
			if v == Gap {
				continue
			}
			if v != next {
				t.Fatalf("row %d indexes out of order: got %d want %d", i, v, next)
			}
			next++
		}
		if next != len(seqs[i]) {
			t.Fatalf("row %d covers %d of %d tokens", i, next, len(seqs[i]))
		}
	}
	for c := 0; c < a.Cols; c++ {
		any := false
		for _, row := range a.Rows {
			if row[c] != Gap {
				any = true
				break
			}
		}
		if !any {
			t.Fatalf("column %d is all gaps", c)
		}
	}
}

func TestAlignIdenticalSequences(t *testing.T) {
	seqs := [][]string{split("dsdsd"), split("dsdsd"), split("dsdsd")}
	a := Align(seqs)
	checkValid(t, a, seqs)
	if a.Cols != 5 {
		t.Errorf("identical sequences should align with no gaps: Cols = %d, want 5", a.Cols)
	}
	for _, row := range a.Rows {
		for c, v := range row {
			if v != c {
				t.Errorf("identity alignment expected, got row %v", row)
				break
			}
		}
	}
}

func TestAlignInsertion(t *testing.T) {
	// Second sequence has an extra trailing "ls" (like the optional
	// " PM" suffix in the paper's Figure 6 column).
	seqs := [][]string{split("dsdsd"), split("dsdsdsl")}
	a := Align(seqs)
	checkValid(t, a, seqs)
	if a.Cols != 7 {
		t.Errorf("Cols = %d, want 7", a.Cols)
	}
	// The first 5 columns must align the shared prefix.
	for c := 0; c < 5; c++ {
		if a.Rows[0][c] != c || a.Rows[1][c] != c {
			t.Errorf("shared prefix misaligned at col %d: %v / %v", c, a.Rows[0], a.Rows[1])
		}
	}
	// The last two columns are gaps in the first row.
	if a.Rows[0][5] != Gap || a.Rows[0][6] != Gap {
		t.Errorf("expected trailing gaps in row 0: %v", a.Rows[0])
	}
}

func TestAlignEmpty(t *testing.T) {
	a := Align(nil)
	if a.Cols != 0 || len(a.Rows) != 0 {
		t.Errorf("empty alignment expected, got %+v", a)
	}
	a = Align([][]string{{}})
	if a.Cols != 0 || len(a.Rows) != 1 {
		t.Errorf("single empty sequence: got %+v", a)
	}
}

func TestAlignDifferentLengthsMiddleGap(t *testing.T) {
	seqs := [][]string{split("abc"), split("ac")}
	a := Align(seqs)
	checkValid(t, a, seqs)
	if a.Cols != 3 {
		t.Fatalf("Cols = %d, want 3", a.Cols)
	}
	// "a" and "c" must align; "b" is gapped in the shorter row.
	if a.Rows[1][0] != 0 || a.Rows[1][2] != 1 || a.Rows[1][1] != Gap {
		t.Errorf("expected a_c alignment, got %v", a.Rows[1])
	}
}

// Property: alignments over random perturbations remain structurally
// valid and never shorter than the longest sequence.
func TestAlignValidityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	symbols := []string{"d", "l", "s/", "s:", "_"}
	for trial := 0; trial < 100; trial++ {
		base := make([]string, 3+rng.Intn(8))
		for i := range base {
			base[i] = symbols[rng.Intn(len(symbols))]
		}
		seqs := make([][]string, 2+rng.Intn(5))
		maxLen := 0
		for i := range seqs {
			s := append([]string(nil), base...)
			// Random insertion or deletion.
			if rng.Intn(2) == 0 && len(s) > 1 {
				k := rng.Intn(len(s))
				s = append(s[:k], s[k+1:]...)
			} else {
				k := rng.Intn(len(s) + 1)
				s = append(s[:k:k], append([]string{symbols[rng.Intn(len(symbols))]}, s[k:]...)...)
			}
			seqs[i] = s
			if len(s) > maxLen {
				maxLen = len(s)
			}
		}
		a := Align(seqs)
		checkValid(t, a, seqs)
		if want := oracleAlign(seqs); !reflect.DeepEqual(a, want) {
			t.Fatalf("trial %d: Align(%q) = %v, oracle %v", trial, seqs, a, want)
		}
		if a.Cols < maxLen {
			t.Fatalf("trial %d: Cols %d < longest sequence %d", trial, a.Cols, maxLen)
		}
	}
}

// FuzzAlignAgree holds Align to the oracle on '|'-separated sequences of
// up to 16 symbols drawn from a six-letter alphabet: the same columns,
// and every row the same.
func FuzzAlignAgree(f *testing.F) {
	for _, seed := range []string{
		"dsdsd|dsdsd|dsdsd", "dsdsd|dsdsdsl", "abc|ac", "", "|ab|", "ab|ba|abab|b",
		"dsdsdsd_dsd|dsdsd_dsds|dsdsdsd_dsd_l|d",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data string) {
		parts := strings.Split(data, "|")
		if len(parts) > 12 {
			parts = parts[:12]
		}
		seqs := make([][]string, len(parts))
		for i, p := range parts {
			if len(p) > 16 {
				p = p[:16]
			}
			seqs[i] = make([]string, len(p))
			for j := 0; j < len(p); j++ {
				seqs[i][j] = string(rune('a' + p[j]%6))
			}
		}
		got, want := Align(seqs), oracleAlign(seqs)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Align(%q) = %v, oracle %v", seqs, got, want)
		}
		checkValid(t, got, seqs)
	})
}

func BenchmarkAlign100x29(b *testing.B) {
	// The paper's Figure 8 column: 29 identical tokens across 100 rows.
	base := make([]string, 29)
	for i := range base {
		base[i] = []string{"d", "s/", "s:", "_", "l"}[i%5]
	}
	seqs := make([][]string, 100)
	for i := range seqs {
		seqs[i] = base
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Align(seqs)
	}
}
