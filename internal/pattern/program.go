package pattern

// A compiled matching program: the one matcher. Compile lowers a pattern
// into a byte-level Thompson NFA once and — for the overwhelming
// majority of inferred patterns — determinizes it into a DFA over
// character classes, so matching is a single table-driven pass:
// O(len(value)) for the DFA, O(len(value)·len(program)) worst case for
// the pike-VM fallback. Neither can backtrack, so no pattern × value
// pair (k adjacent <digit>+ tokens against a long digit string that
// fails at the end is the classic one) costs more than that. Every
// walk is written once, generic over the two forms a value arrives in.

import "sync"

// byteSet is a 256-bit byte membership set — the predicate of one NFA
// byte instruction.
type byteSet [4]uint64

func (s *byteSet) add(b byte) { s[b>>6] |= 1 << (b & 63) }

func (s *byteSet) has(b byte) bool { return s[b>>6]&(1<<(b&63)) != 0 }

func (s *byteSet) empty() bool { return s[0]|s[1]|s[2]|s[3] == 0 }

// opcode discriminates program instructions.
type opcode uint8

const (
	// opByte consumes one input byte if it is in preds[pred], then
	// advances to the next instruction.
	opByte opcode = iota
	// opSplit forks execution to both x and y without consuming input.
	opSplit
	// opJmp continues at x without consuming input.
	opJmp
	// opMatch accepts if the whole input has been consumed.
	opMatch
)

// inst is one program instruction.
type inst struct {
	op   opcode
	pred uint16 // opByte: predicate index
	x, y int32  // opSplit: both targets; opJmp: x
}

// Program is a compiled, immutable matcher for one pattern. It is safe
// for concurrent use: DFA execution is read-only, and the NFA fallback
// draws its per-call scratch from an internal pool.
type Program struct {
	insts []inst
	preds []byteSet
	// tokOf parallels insts with the pattern-token index each
	// instruction was emitted for; numToks is the pattern's token count.
	// Both serve failure attribution (Explain), not matching.
	tokOf   []uint16
	numToks int
	dfa     *dfaTable // nil when the pattern did not lower to a DFA
	pool    sync.Pool // *nfaScratch sized to this program
}

// dfaTable is the determinized form: a dense transition table over the
// compressed byte alphabet. next is states×numSym, -1 is the dead state.
// For small automata, flat is the same table widened to 256 entries per
// state with the dead state materialized as a self-looping row, so the
// hot loop is branchless: one load per input byte, no symbol indirection
// and no dead-state test until the end.
type dfaTable struct {
	symtab [256]uint8
	numSym int
	next   []int32
	accept []bool
	// flat is (states+1)×256; row len(accept)-1... see determinize. The
	// last row is the dead state, every entry of which points back to
	// itself, and flatAccept has one extra false entry for it.
	flat       []uint32
	flatAccept []bool
	// stateTok and stateHasByte attribute failures: the earliest pattern
	// token a state's live byte instructions belong to, and whether the
	// state can consume at all (false = accept-only, any further byte is
	// trailing excess). Explain-only; the match loops never touch them.
	stateTok     []uint16
	stateHasByte []bool
}

// Mode reports how values are matched: "dfa" for the single-pass table
// or "nfa" for the step-bounded pike-VM fallback.
func (p *Program) Mode() string {
	if p.dfa != nil {
		return "dfa"
	}
	return "nfa"
}

// Value is the two forms a value reaches the matcher in: a string out
// of a JSON envelope, or a byte view into a decoded column body.
type Value interface{ ~string | ~[]byte }

// MatchString reports whether the program matches the whole string.
func (p *Program) MatchString(v string) bool { return Match(p, v) }

// Match reports whether the program matches the whole byte slice.
func (p *Program) Match(b []byte) bool { return Match(p, b) }

// Match reports whether the program matches the whole value. It performs
// no per-call allocations in DFA mode and only pooled scratch reuse in
// NFA mode, which is what makes Rule.ValidateBatch allocation-free per
// value.
func Match[V Value](p *Program, v V) bool {
	d := p.dfa
	if d == nil {
		_, ok, _ := runNFA(p, v)
		return ok
	}
	if tab := d.flat; tab != nil {
		st := uint32(0)
		for i := 0; i < len(v); i++ {
			st = tab[st<<8|uint32(v[i])]
		}
		return d.flatAccept[st]
	}
	st := int32(0)
	numSym := int32(d.numSym)
	for i := 0; i < len(v); i++ {
		st = d.next[st*numSym+int32(d.symtab[v[i]])]
		if st < 0 {
			return false
		}
	}
	return d.accept[st]
}

// CountMisses is the batch kernel over byte views; see the generic form.
func (p *Program) CountMisses(values [][]byte, missIdx []int, maxRecord int) (int, []int) {
	return CountMisses(p, values, missIdx, maxRecord)
}

// CountMisses runs the program over a whole batch, returning the number
// of values that do not match and appending the index of each miss to
// missIdx until it holds maxRecord entries. The batch loop lives here so
// the DFA table stays hot in registers across values; it is the kernel
// under Rule.Validate and Rule.ValidateBatch and performs no allocations
// beyond missIdx's own growth (pass a slice with spare capacity to
// avoid even that).
func CountMisses[V Value](p *Program, values []V, missIdx []int, maxRecord int) (int, []int) {
	misses := 0
	record := func(i int) {
		misses++
		if len(missIdx) < maxRecord {
			missIdx = append(missIdx, i)
		}
	}
	i := 0
	if d := p.dfa; d != nil && d.flat != nil {
		tab := d.flat
		accept := d.flatAccept
		// Four values advance in lockstep through the table: the per-byte
		// loads of one DFA walk form a serial dependency chain, so a
		// single walk is load-latency-bound; four independent chains keep
		// the load ports busy. Columns produced by one inferred pattern
		// are typically uniform-width, so the lockstep prefix usually
		// covers the whole value and the tails are empty.
		for ; i+4 <= len(values); i += 4 {
			v0, v1, v2, v3 := values[i], values[i+1], values[i+2], values[i+3]
			n := min(len(v0), len(v1), len(v2), len(v3))
			var s0, s1, s2, s3 uint32
			for j := 0; j < n; j++ {
				s0 = tab[s0<<8|uint32(v0[j])]
				s1 = tab[s1<<8|uint32(v1[j])]
				s2 = tab[s2<<8|uint32(v2[j])]
				s3 = tab[s3<<8|uint32(v3[j])]
			}
			for j := n; j < len(v0); j++ {
				s0 = tab[s0<<8|uint32(v0[j])]
			}
			for j := n; j < len(v1); j++ {
				s1 = tab[s1<<8|uint32(v1[j])]
			}
			for j := n; j < len(v2); j++ {
				s2 = tab[s2<<8|uint32(v2[j])]
			}
			for j := n; j < len(v3); j++ {
				s3 = tab[s3<<8|uint32(v3[j])]
			}
			if !accept[s0] {
				record(i)
			}
			if !accept[s1] {
				record(i + 1)
			}
			if !accept[s2] {
				record(i + 2)
			}
			if !accept[s3] {
				record(i + 3)
			}
		}
	}
	for ; i < len(values); i++ {
		if !Match(p, values[i]) {
			record(i)
		}
	}
	return misses, missIdx
}

// nfaScratch is the pike VM's reusable per-call state: two run lists and
// an epoch-stamped membership mark, all sized to the program.
type nfaScratch struct {
	cur, next []int32
	stack     []int32
	mark      []uint32
	epoch     uint32
}

func (p *Program) scratch() *nfaScratch {
	if s, ok := p.pool.Get().(*nfaScratch); ok {
		return s
	}
	n := len(p.insts)
	return &nfaScratch{
		cur:   make([]int32, 0, n),
		next:  make([]int32, 0, n),
		stack: make([]int32, 0, n),
		mark:  make([]uint32, n),
	}
}

// bump advances the scratch epoch, clearing the mark array only on the
// (rare) wraparound so steady-state runs never rescan it.
func (s *nfaScratch) bump() {
	s.epoch++
	if s.epoch == 0 {
		for i := range s.mark {
			s.mark[i] = 0
		}
		s.epoch = 1
	}
}

// addClosure pushes pc and everything reachable from it through
// split/jmp edges onto list, keeping only byte and match instructions.
// Each instruction enters the list at most once per epoch, which is the
// linearity guarantee.
func (p *Program) addClosure(list []int32, pc int32, s *nfaScratch, steps *int) []int32 {
	s.stack = append(s.stack[:0], pc)
	for len(s.stack) > 0 {
		pc = s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		if s.mark[pc] == s.epoch {
			continue
		}
		s.mark[pc] = s.epoch
		*steps++
		switch in := &p.insts[pc]; in.op {
		case opSplit:
			s.stack = append(s.stack, in.x, in.y)
		case opJmp:
			s.stack = append(s.stack, in.x)
		default:
			list = append(list, pc)
		}
	}
	return list
}

// runNFA is the pike VM, the one loop behind Match and Explain in NFA
// mode: the verdict, where and on which token a miss died (the run list
// before the failing byte plays the role of the DFA state), and the
// number of simulation steps taken, which (len(v)+1)·len(insts) bounds
// by construction: each instruction joins the run list at most once per
// input position.
func runNFA[V Value](p *Program, v V) (miss Miss, ok bool, steps int) {
	s := p.scratch()
	defer p.pool.Put(s)
	s.bump()
	cur := p.addClosure(s.cur[:0], 0, s, &steps)
	for i := 0; i < len(v); i++ {
		c := v[i]
		s.bump()
		nxt := s.next[:0]
		for _, pc := range cur {
			in := &p.insts[pc]
			if in.op == opByte && p.preds[in.pred].has(c) {
				nxt = p.addClosure(nxt, pc+1, s, &steps)
			}
		}
		// Swap the backing arrays so both lists keep their capacity.
		s.cur, s.next = nxt, cur
		if len(nxt) == 0 {
			tok, hasByte := p.listToken(cur)
			if !hasByte {
				// The list could only accept: v[:i] was a complete match
				// and v[i:] is trailing excess.
				return Miss{Pos: i, Token: p.numToks, Kind: MissLength}, false, steps
			}
			return Miss{Pos: i, Token: tok, Kind: MissCharset}, false, steps
		}
		cur = nxt
	}
	s.cur = cur
	for _, pc := range cur {
		if p.insts[pc].op == opMatch {
			return Miss{}, true, steps
		}
	}
	tok, _ := p.listToken(cur)
	return Miss{Pos: len(v), Token: tok, Kind: MissLength}, false, steps
}

// listToken returns the earliest pattern token among a run list's byte
// instructions, and whether the list can consume at all.
func (p *Program) listToken(list []int32) (int, bool) {
	minTok := p.numToks
	hasByte := false
	for _, pc := range list {
		if p.insts[pc].op == opByte {
			hasByte = true
			if t := int(p.tokOf[pc]); t < minTok {
				minTok = t
			}
		}
	}
	return minTok, hasByte
}
