package pattern

// Failure attribution: given a value that does not match, report where
// the automaton died and which pattern token it was trying to consume.
// This is the forensic counterpart of Match — it runs only on values
// already known to miss (alarm triage, /streams/{name}/explain), so it
// favors precision over speed and never touches the batch hot path.

// MissKind classifies why a value failed to match.
type MissKind string

const (
	// MissCharset: the value diverged from the pattern mid-token — the
	// byte at Pos is outside every character class the automaton could
	// consume there.
	MissCharset MissKind = "charset"
	// MissLength: every byte fit its token but the value's length is
	// wrong — it ended before the pattern was satisfied (Pos == len) or
	// continued past a state that could only accept (trailing excess).
	MissLength MissKind = "length"
)

// Miss locates one non-matching value's point of failure.
type Miss struct {
	// Pos is the byte offset where matching died; len(value) when the
	// value ran out before the pattern did.
	Pos int
	// Token is the 0-based index of the pattern token being consumed at
	// the failure point; the pattern's token count means "past the end"
	// (the value extended beyond a complete match).
	Token int
	// Kind is the failure class.
	Kind MissKind
}

// Explain is the byte-slice front of the generic form.
func (p *Program) Explain(b []byte) (Miss, bool) { return Explain(p, b) }

// Explain reports why v does not match: the failing byte position, the
// pattern token the automaton was consuming, and whether the mismatch
// is a character-class divergence or a length problem. ok is true (and
// the Miss zero) when v actually matches.
func Explain[V Value](p *Program, v V) (miss Miss, ok bool) {
	d := p.dfa
	if d == nil {
		miss, ok, _ = runNFA(p, v)
		return miss, ok
	}
	// The compressed-alphabet table (always present in DFA mode) keeps
	// the pre-transition state, so a death can be attributed.
	st := int32(0)
	numSym := int32(d.numSym)
	for i := 0; i < len(v); i++ {
		nxt := d.next[st*numSym+int32(d.symtab[v[i]])]
		if nxt < 0 {
			if !d.stateHasByte[st] {
				// The state could only accept: everything up to i was a
				// complete match and v[i:] is trailing excess.
				return Miss{Pos: i, Token: p.numToks, Kind: MissLength}, false
			}
			return Miss{Pos: i, Token: int(d.stateTok[st]), Kind: MissCharset}, false
		}
		st = nxt
	}
	if d.accept[st] {
		return Miss{}, true
	}
	return Miss{Pos: len(v), Token: int(d.stateTok[st]), Kind: MissLength}, false
}
