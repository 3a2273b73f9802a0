package pattern

import "autovalidate/internal/tokens"

// OracleEnumerate exposes the reference enumeration to the external test
// package, which can import datagen (datagen imports this package).
var OracleEnumerate = oracleEnumerate

// newBitset is the oracle's bitset constructor; Enumerate carves its
// bitsets from pooled scratch instead.
func newBitset(words int) bitset { return make(bitset, words) }

// Summarize is the obvious summariser of a column, the reference the
// external tests hold EnumerateSummary's callers to.
var Summarize = summarize

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

// NumInsts returns the compiled program length (NFA instructions).
func (p *Program) NumInsts() int { return len(p.insts) }

// MaxSteps bounds the work of matching an n-byte value in NFA mode: the
// pike VM adds each instruction to the run list at most once per input
// position, so total step count never exceeds (n+1)·len(insts). The DFA
// does exactly n table lookups.
func (p *Program) MaxSteps(n int) int { return (n + 1) * len(p.insts) }
