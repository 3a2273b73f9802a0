// Package tokens implements the character-class lexer that underlies the
// Auto-Validate pattern language (SIGMOD 2021, §2.1 and §3).
//
// A value is scanned left to right and grown into maximal runs of a single
// character class, exactly as the paper's lexer does before multi-sequence
// alignment: letters, digits, spaces, and symbols. Symbols are emitted one
// character per token so that vertical cuts can fall between punctuation
// (the paper's example "[<num>|<num>/<num>..." treats each bracket and bar
// as its own token).
package tokens

import (
	"fmt"
	"strings"
)

// Class is the character class of a token run, the leaf layer of the
// generalization hierarchy in Figure 4 of the paper.
type Class uint8

// Character classes. ClassAny is the hierarchy root <all> and never
// produced by the lexer; it only appears in generalized patterns.
const (
	ClassNone Class = iota
	ClassDigit
	ClassLetter
	ClassSymbol
	ClassSpace
	ClassAlnum // generalization of digit|letter, not produced by the lexer
	ClassAny   // hierarchy root <all>, not produced by the lexer
)

// String returns the paper's notation for the class.
func (c Class) String() string {
	switch c {
	case ClassDigit:
		return "<digit>"
	case ClassLetter:
		return "<letter>"
	case ClassSymbol:
		return "<symbol>"
	case ClassSpace:
		return "<space>"
	case ClassAlnum:
		return "<alnum>"
	case ClassAny:
		return "<all>"
	default:
		return "<none>"
	}
}

// Generalizes reports whether class c is an ancestor-or-self of class d in
// the Figure 4 hierarchy: <all> ⊇ <alnum> ⊇ {<digit>, <letter>};
// <all> ⊇ {<symbol>, <space>}.
func (c Class) Generalizes(d Class) bool {
	if c == d {
		return true
	}
	switch c {
	case ClassAny:
		return true
	case ClassAlnum:
		return d == ClassDigit || d == ClassLetter
	default:
		return false
	}
}

// ClassOf returns the class of a single byte. Non-ASCII bytes are treated
// as letters, which matches how the production lexer in the paper handles
// extended characters in machine-generated data.
func ClassOf(b byte) Class {
	switch {
	case b >= '0' && b <= '9':
		return ClassDigit
	case b >= 'a' && b <= 'z', b >= 'A' && b <= 'Z', b >= 0x80:
		return ClassLetter
	case b == ' ' || b == '\t':
		return ClassSpace
	default:
		return ClassSymbol
	}
}

// Run is one maximal token produced by the lexer: a span of consecutive
// characters of the same class (symbols are single characters).
type Run struct {
	Class Class
	Text  string
}

// String renders the run for debugging.
func (r Run) String() string {
	return fmt.Sprintf("%s(%q)", r.Class, r.Text)
}

// Lex splits a value into its token runs. Empty input yields nil.
func Lex(v string) []Run {
	if v == "" {
		return nil
	}
	return AppendLex(make([]Run, 0, 8), v)
}

// AppendLex appends the token runs of v to runs and returns the extended
// slice: Lex(v) is runs[len(runs):] of the result. The run texts are
// slices of v, so a caller that lexes many values into one slab allocates
// nothing beyond the slab's growth.
func AppendLex(runs []Run, v string) []Run {
	if v == "" {
		return runs
	}
	start := 0
	cur := ClassOf(v[0])
	for i := 1; i <= len(v); i++ {
		var c Class
		if i < len(v) {
			c = ClassOf(v[i])
		}
		// Break the run on class change, end of string, or — for
		// symbols — every character, so punctuation tokens stay
		// single-character.
		if i == len(v) || c != cur || cur == ClassSymbol {
			runs = append(runs, Run{Class: cur, Text: v[start:i]})
			start = i
			cur = c
		}
	}
	return runs
}

// Count returns t(v), the number of tokens in value v as defined in §2.4
// of the paper: consecutive sequences of letters, digits, or symbols.
// Space runs count as (whitespace) symbol tokens, which reproduces the
// paper's 13-token count for "9/07/2010 9:07:32 AM".
func Count(v string) int {
	n := 0
	prev := ClassNone
	for i := 0; i < len(v); i++ {
		c := ClassOf(v[i])
		if c != prev || c == ClassSymbol {
			n++
		}
		prev = c
	}
	return n
}

// shapeLetter spells a run of class c in a shape: "d", "l", "a" or "_",
// and "s" for a symbol (or a class the lexer never produces), which Shape
// and Symbols follow with the symbol itself.
func shapeLetter(c Class) string {
	switch c {
	case ClassDigit:
		return "d"
	case ClassLetter:
		return "l"
	case ClassAlnum:
		return "a"
	case ClassSpace:
		return "_"
	default:
		return "s"
	}
}

// Shape returns a compact signature of the class sequence of a value,
// used to group values drawn from the same coarse pattern (Algorithm 1's
// first step emits one coarse token sequence per value; values with equal
// shapes share it).
func Shape(runs []Run) string {
	var sb strings.Builder
	for _, r := range runs {
		l := shapeLetter(r.Class)
		sb.WriteString(l)
		if l == "s" {
			// Keep the symbol itself: "1/2" and "1-2" are
			// different coarse shapes for alignment purposes.
			sb.WriteString(r.Text)
		}
	}
	return sb.String()
}

// Symbols returns Shape's spelling of each run, one string a run: the
// runs as multi-sequence alignment symbols, under which classes compare
// by kind and symbol runs keep their identity, so ":" aligns with ":" not
// "/".
func Symbols(runs []Run) []string {
	out := make([]string, len(runs))
	for i, r := range runs {
		if out[i] = shapeLetter(r.Class); out[i] == "s" {
			out[i] += r.Text
		}
	}
	return out
}

// ClassShape is like Shape but ignores symbol identities, grouping values
// whose class sequences agree even when punctuation differs.
func ClassShape(runs []Run) string {
	return string(AppendClassShape(make([]byte, 0, len(runs)), runs))
}

// AppendClassShape appends the bytes of ClassShape(runs) to b.
func AppendClassShape(b []byte, runs []Run) []byte {
	for _, r := range runs {
		b = append(b, shapeLetter(r.Class)...)
	}
	return b
}

// Classes returns just the class sequence of the runs.
func Classes(runs []Run) []Class {
	cs := make([]Class, len(runs))
	for i, r := range runs {
		cs[i] = r.Class
	}
	return cs
}

// MergeAlnum appends to dst the coarser tokenization of v in which
// adjacent letter and digit runs merge into single <alnum> runs — the one
// behind the <alnum> generalizations of Figure 4, under which e.g. hex
// identifiers have a uniform shape. runs must be Lex(v); the merged
// texts are slices of v, so nothing is allocated beyond dst's growth.
func MergeAlnum(dst []Run, v string, runs []Run) []Run {
	base := len(dst)
	start, pos := 0, 0 // byte offsets in v of the run being grown and of r
	for _, r := range runs {
		c := r.Class
		if c == ClassDigit || c == ClassLetter {
			c = ClassAlnum
		}
		end := pos + len(r.Text)
		if n := len(dst); n > base && dst[n-1].Class == ClassAlnum && c == ClassAlnum {
			dst[n-1].Text = v[start:end]
		} else {
			start = pos
			dst = append(dst, Run{Class: c, Text: v[pos:end]})
		}
		pos = end
	}
	return dst
}

// Join reassembles the original value from its runs.
func Join(runs []Run) string {
	var sb strings.Builder
	for _, r := range runs {
		sb.WriteString(r.Text)
	}
	return sb.String()
}
