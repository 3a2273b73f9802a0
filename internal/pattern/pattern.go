// Package pattern implements the Auto-Validate pattern language (paper
// §2.1): sequences of tokens drawn from the generalization hierarchy of
// Figure 4, an anchored matcher, and the coverage-pruned pattern
// enumeration of Algorithm 1 that produces P(v), P(D) and H(C).
package pattern

import (
	"strconv"
	"strings"

	"autovalidate/internal/tokens"
)

// Kind discriminates the token kinds of the pattern language.
type Kind uint8

// Token kinds.
const (
	KindLiteral Kind = iota // an exact constant string, e.g. Const("Mar")
	KindClass               // a character-class with repetition, e.g. <digit>{2} or <letter>+
	KindNum                 // <num>: an optionally signed integer or decimal
)

// Tok is a single token of a pattern.
//
// For KindClass, Min and Max bound the number of characters matched;
// Max = Unbounded encodes the "+" quantifier. Min may be zero for tokens
// made optional by alignment gaps (§3).
type Tok struct {
	Kind  Kind
	Class tokens.Class // valid for KindClass
	Min   int          // valid for KindClass
	Max   int          // valid for KindClass; Unbounded for "+"
	Lit   string       // valid for KindLiteral
	Opt   bool         // optional token (KindLiteral and KindNum); class tokens use Min=0
}

// Unbounded is the Max value encoding the "+" quantifier.
const Unbounded = -1

// Lit constructs a literal token.
func Lit(s string) Tok { return Tok{Kind: KindLiteral, Lit: s} }

// ClassN constructs a fixed-width class token <class>{n}.
func ClassN(c tokens.Class, n int) Tok {
	return Tok{Kind: KindClass, Class: c, Min: n, Max: n}
}

// ClassPlus constructs an unbounded class token <class>+.
func ClassPlus(c tokens.Class) Tok {
	return Tok{Kind: KindClass, Class: c, Min: 1, Max: Unbounded}
}

// ClassRange constructs <class>{min,max}; max may be Unbounded.
func ClassRange(c tokens.Class, min, max int) Tok {
	return Tok{Kind: KindClass, Class: c, Min: min, Max: max}
}

// Num constructs the <num> token.
func Num() Tok { return Tok{Kind: KindNum} }

// String renders a token in the paper's notation. Literal text escapes
// '<', '(', ')' and '\' so that rendered patterns are unambiguous
// canonical keys.
func (t Tok) String() string {
	var buf [32]byte
	return string(t.appendTo(buf[:0]))
}

// appendTo appends the token's rendering to b. It is the one token
// renderer: String, Pattern.String and the keys enumeration assembles
// all go through it.
func (t Tok) appendTo(b []byte) []byte {
	switch t.Kind {
	case KindLiteral:
		if t.Opt {
			b = append(b, '(')
			b = appendEscaped(b, t.Lit)
			return append(b, ")?"...)
		}
		return appendEscaped(b, t.Lit)
	case KindNum:
		if t.Opt {
			return append(b, "<num>?"...)
		}
		return append(b, "<num>"...)
	}
	b = append(b, t.Class.String()...)
	switch {
	case t.Max == Unbounded && t.Min <= 1:
		return append(b, '+')
	case t.Max == Unbounded:
		b = append(b, '{')
		b = strconv.AppendInt(b, int64(t.Min), 10)
		return append(b, ",+}"...)
	case t.Min == t.Max:
		b = append(b, '{')
		b = strconv.AppendInt(b, int64(t.Min), 10)
		return append(b, '}')
	default:
		b = append(b, '{')
		b = strconv.AppendInt(b, int64(t.Min), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(t.Max), 10)
		return append(b, '}')
	}
}

// appendEscaped appends s to b with the metacharacters of the pattern
// notation — '<' (class tokens), '(' and ')' (optional groups), and '\'
// itself — escaped, so a rendered pattern is an unambiguous canonical key
// and can be parsed back by Parse.
func appendEscaped(b []byte, s string) []byte {
	if !strings.ContainsAny(s, `<\()`) {
		return append(b, s...)
	}
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '<', '\\', '(', ')':
			b = append(b, '\\')
		}
		b = append(b, s[i])
	}
	return b
}

// Pattern is a sequence of tokens matched against a whole value
// (anchored at both ends).
type Pattern struct {
	Toks []Tok
}

// New builds a pattern from tokens.
func New(toks ...Tok) Pattern { return Pattern{Toks: toks} }

// String renders the pattern in the paper's notation, which doubles as
// its canonical key in the offline index.
func (p Pattern) String() string {
	var buf [64]byte
	b := buf[:0]
	for _, t := range p.Toks {
		b = t.appendTo(b)
	}
	return string(b)
}

// Key returns the canonical index key of the pattern.
func (p Pattern) Key() string { return p.String() }

// TokenCount returns the number of tokens, mirroring tokens.Count for
// values: it is the quantity capped by τ in §2.4. Literal tokens count
// as their lexed runs ("/m/" is three tokens), so structurally different
// but equivalent representations — e.g. a parsed pattern whose adjacent
// literals merged — report the same count.
func (p Pattern) TokenCount() int {
	n := 0
	for _, t := range p.Toks {
		if t.Kind == KindLiteral {
			n += tokens.Count(t.Lit)
			continue
		}
		n++
	}
	return n
}

// IsTrivial reports whether the pattern is the catch-all "<all>+"
// (the paper's ".*"), which is excluded from every hypothesis space.
func (p Pattern) IsTrivial() bool {
	if len(p.Toks) != 1 {
		return false
	}
	t := p.Toks[0]
	return t.Kind == KindClass && t.Class == tokens.ClassAny && t.Max == Unbounded
}

// Concat returns the concatenation of patterns, used by vertical cuts to
// assemble the full-column pattern from per-segment patterns (§3).
func Concat(ps ...Pattern) Pattern {
	var out Pattern
	for _, p := range ps {
		out.Toks = append(out.Toks, p.Toks...)
	}
	return out
}

// Equal reports structural equality.
func (p Pattern) Equal(q Pattern) bool {
	if len(p.Toks) != len(q.Toks) {
		return false
	}
	for i := range p.Toks {
		if p.Toks[i] != q.Toks[i] {
			return false
		}
	}
	return true
}

// GeneralizesTok reports whether token a generalizes token b in the
// Figure 4 hierarchy: every string matched by b is matched by a. It is a
// sound but not complete per-token check used by tests and by the greedy
// horizontal-cut heuristic.
func GeneralizesTok(a, b Tok) bool {
	if a == b {
		return true
	}
	switch a.Kind {
	case KindLiteral:
		return b.Kind == KindLiteral && a.Lit == b.Lit
	case KindNum:
		if b.Kind == KindNum {
			return true
		}
		return b.Kind == KindClass && b.Class == tokens.ClassDigit
	default: // KindClass
		switch b.Kind {
		case KindLiteral:
			if b.Lit == "" {
				return a.Min == 0
			}
			for i := 0; i < len(b.Lit); i++ {
				if !a.Class.Generalizes(tokens.ClassOf(b.Lit[i])) {
					return false
				}
			}
			return fitsWidth(a, len(b.Lit))
		case KindNum:
			// <num> can match strings with '.' and '-'.
			return a.Class == tokens.ClassAny && a.Max == Unbounded && a.Min <= 1
		default:
			if !a.Class.Generalizes(b.Class) {
				return false
			}
			if a.Min > b.Min {
				return false
			}
			if a.Max == Unbounded {
				return true
			}
			return b.Max != Unbounded && b.Max <= a.Max
		}
	}
}

func fitsWidth(t Tok, n int) bool {
	if n < t.Min {
		return false
	}
	return t.Max == Unbounded || n <= t.Max
}

// Generalizes reports whether p generalizes q token-by-token. This is
// sound (true implies language containment) for equal-arity patterns.
func (p Pattern) Generalizes(q Pattern) bool {
	if len(p.Toks) != len(q.Toks) {
		return false
	}
	for i := range p.Toks {
		if !GeneralizesTok(p.Toks[i], q.Toks[i]) {
			return false
		}
	}
	return true
}

// Optional returns a copy of the pattern in which every token also
// matches the empty string: class tokens get Min = 0 and literal and
// <num> tokens are flagged optional. Vertical cuts use this for segments
// that are gapped in part of the aligned column (§3) — e.g. an optional
// " PM" suffix. Note the tokens become individually optional, a slight
// over-generalization of making the whole segment optional.
func Optional(p Pattern) Pattern {
	out := Pattern{Toks: make([]Tok, len(p.Toks))}
	copy(out.Toks, p.Toks)
	for i := range out.Toks {
		switch out.Toks[i].Kind {
		case KindClass:
			out.Toks[i].Min = 0
		default:
			out.Toks[i].Opt = true
		}
	}
	return out
}

// FromValue returns the most specific pattern of a value: its constant
// tokens. It is the leaf of P(v) in the hierarchy.
func FromValue(v string) Pattern {
	runs := tokens.Lex(v)
	toks := make([]Tok, len(runs))
	for i, r := range runs {
		toks[i] = Lit(r.Text)
	}
	return Pattern{Toks: toks}
}
