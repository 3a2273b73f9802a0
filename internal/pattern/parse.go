package pattern

import (
	"fmt"
	"strconv"
	"strings"

	"autovalidate/internal/tokens"
)

// Parse converts the canonical notation produced by Pattern.String back
// into a Pattern, enabling rules to be persisted and reloaded. The
// grammar is exactly what String emits:
//
//	pattern  := token*
//	token    := class quant? | "<num>" "?"? | "(" literal ")?" | literal
//	class    := "<digit>" | "<letter>" | "<symbol>" | "<space>" | "<alnum>" | "<all>"
//	quant    := "+" | "{" n "}" | "{" n "," m "}" | "{" n ",+}"
//	literal  := (plain char | "\" escaped char)+
//
// Consecutive literal characters merge into a single literal token; the
// result is therefore structurally canonical, and
// Parse(p.String()).String() == p.String() for every valid p. A pattern
// that would lower to a program above maxProgramSize is an error.
func Parse(s string) (Pattern, error) {
	var p Pattern
	var lit strings.Builder
	flushLit := func() {
		if lit.Len() > 0 {
			p.Toks = append(p.Toks, Lit(lit.String()))
			lit.Reset()
		}
	}
	i := 0
	for i < len(s) {
		switch c := s[i]; c {
		case '\\':
			if i+1 >= len(s) {
				return Pattern{}, fmt.Errorf("pattern: trailing escape at %d in %q", i, s)
			}
			lit.WriteByte(s[i+1])
			i += 2
		case '<':
			flushLit()
			tok, n, err := parseClass(s[i:])
			if err != nil {
				return Pattern{}, fmt.Errorf("pattern: at %d in %q: %w", i, s, err)
			}
			p.Toks = append(p.Toks, tok)
			i += n
		case '(':
			flushLit()
			text, n, err := parseOptionalGroup(s[i:])
			if err != nil {
				return Pattern{}, fmt.Errorf("pattern: at %d in %q: %w", i, s, err)
			}
			p.Toks = append(p.Toks, Tok{Kind: KindLiteral, Lit: text, Opt: true})
			i += n
		case ')':
			return Pattern{}, fmt.Errorf("pattern: unescaped ')' at %d in %q", i, s)
		default:
			lit.WriteByte(c)
			i++
		}
	}
	flushLit()
	if err := checkSize(p); err != nil {
		return Pattern{}, fmt.Errorf("pattern: %w", err)
	}
	return p, nil
}

var classNames = map[string]tokens.Class{
	"<digit>":  tokens.ClassDigit,
	"<letter>": tokens.ClassLetter,
	"<symbol>": tokens.ClassSymbol,
	"<space>":  tokens.ClassSpace,
	"<alnum>":  tokens.ClassAlnum,
	"<all>":    tokens.ClassAny,
}

// parseClass parses a class or <num> token with its quantifier from the
// start of s, returning the token and the number of bytes consumed.
func parseClass(s string) (Tok, int, error) {
	end := strings.IndexByte(s, '>')
	if end < 0 {
		return Tok{}, 0, fmt.Errorf("unterminated class token")
	}
	name := s[:end+1]
	i := end + 1
	if name == "<num>" {
		if i < len(s) && s[i] == '?' {
			return Tok{Kind: KindNum, Opt: true}, i + 1, nil
		}
		return Num(), i, nil
	}
	class, ok := classNames[name]
	if !ok {
		return Tok{}, 0, fmt.Errorf("unknown class %q", name)
	}
	// Quantifier.
	if i < len(s) && s[i] == '+' {
		return ClassPlus(class), i + 1, nil
	}
	if i >= len(s) || s[i] != '{' {
		return Tok{}, 0, fmt.Errorf("class %q missing quantifier", name)
	}
	close := strings.IndexByte(s[i:], '}')
	if close < 0 {
		return Tok{}, 0, fmt.Errorf("unterminated quantifier after %q", name)
	}
	body := s[i+1 : i+close]
	i += close + 1
	comma := strings.IndexByte(body, ',')
	if comma < 0 {
		n, err := strconv.Atoi(body)
		if err != nil || n < 0 {
			return Tok{}, 0, fmt.Errorf("bad quantifier {%s}", body)
		}
		return ClassN(class, n), i, nil
	}
	min, err := strconv.Atoi(body[:comma])
	if err != nil || min < 0 {
		return Tok{}, 0, fmt.Errorf("bad quantifier {%s}", body)
	}
	if body[comma+1:] == "+" {
		return ClassRange(class, min, Unbounded), i, nil
	}
	max, err := strconv.Atoi(body[comma+1:])
	if err != nil || max < 0 {
		return Tok{}, 0, fmt.Errorf("bad quantifier {%s}", body)
	}
	return ClassRange(class, min, max), i, nil
}

// parseOptionalGroup parses "(escaped-literal)?" from the start of s.
func parseOptionalGroup(s string) (string, int, error) {
	var text strings.Builder
	i := 1 // past '('
	for i < len(s) {
		switch s[i] {
		case '\\':
			if i+1 >= len(s) {
				return "", 0, fmt.Errorf("trailing escape in optional group")
			}
			text.WriteByte(s[i+1])
			i += 2
		case ')':
			if i+1 >= len(s) || s[i+1] != '?' {
				return "", 0, fmt.Errorf("optional group must end with )?")
			}
			return text.String(), i + 2, nil
		default:
			text.WriteByte(s[i])
			i++
		}
	}
	return "", 0, fmt.Errorf("unterminated optional group")
}
