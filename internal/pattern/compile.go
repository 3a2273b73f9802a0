package pattern

// Compile lowers a pattern's token list into a Program: literals become
// exact-byte instructions, class runs with {n}/{n,m}/+ bounds become
// counted repetitions with split edges, <num> becomes the grammar
// sign? digit+ ('.' digit+)?, and optional tokens split around their
// body. The NFA is then determinized into a DFA over a compressed byte
// alphabet when it fits under the state cap; patterns that blow the cap
// (huge counted repetitions) keep the linear pike-VM form.

import (
	"encoding/binary"
	"fmt"
	"slices"

	"autovalidate/internal/tokens"
)

// maxDFAStates caps subset construction: beyond this the program stays
// in NFA mode. Inferred patterns are τ-capped and rarely exceed a few
// dozen states; the cap only triggers on adversarial bounded counts.
const maxDFAStates = 2048

// maxDFAInsts skips determinization outright for huge programs, whose
// transition tables would not pay for themselves.
const maxDFAInsts = 4096

// maxDFAWork caps subset construction's total work, counted as the
// summed size of every closure it computes, whether it becomes a new
// state or lands on a known one. Past it the program stays in NFA mode,
// as past maxDFAStates. The state cap alone does not bound the work: a
// state of a 4096-instruction program may hold thousands of pcs, and
// <all>{0,680}×3 computes 1.39 M pcs of closures (45 MB allocated) in
// fewer than 2048 states. Over the 20 389 patterns of the quick
// evaluation lakes' indexes the work is 32 at the median and 240 at most
// (TestLakePatternsGetADFA); at the cap the stored sets and their keys
// take 512 KiB.
const maxDFAWork = 1 << 16

// maxProgramSize is the ceiling on what a parsed pattern may lower to:
// at most this many tokens and this many NFA instructions. Parse
// enforces it, so a pattern that arrives from outside the program — an
// inline rule, a rule file, a registry — cannot size the compiled
// program. An instruction costs 12 B, its token index 2 B and its share
// of one pike-VM scratch 16 B, so a maximal program stays near 1 MiB,
// and every token index fits the uint16 the compiler stores it in.
// Inferred patterns come nowhere near: a segment has at most τ tokens
// and a class token's count is bounded by the width of the values it
// was inferred from, so a column of 64-byte values lowers to fewer than
// 200 instructions.
const maxProgramSize = 1 << 15

// size returns the number of instructions compiler.token emits for t,
// with two roundings up. {0,+} is charged as the + it renders as (and
// re-parses to, with a minimum of one), so a pattern and its canonical
// form are accepted or refused together. A count above the ceiling is
// returned as it is, unmultiplied, so checkSize refuses it before any
// arithmetic on it can overflow.
func (t Tok) size() int {
	opt := 0
	if t.Opt {
		opt = 1
	}
	switch t.Kind {
	case KindLiteral:
		return opt + len(t.Lit)
	case KindNum:
		return opt + 12
	}
	lo := max(t.Min, 0)
	switch {
	case lo > maxProgramSize || t.Max > maxProgramSize:
		return max(lo, t.Max)
	case t.Max == Unbounded:
		return max(lo, 1) + 3
	case t.Max < lo:
		return 1
	}
	return lo + 2*(t.Max-lo)
}

// checkSize reports whether p lowers to a program under the ceiling.
func checkSize(p Pattern) error {
	if len(p.Toks) > maxProgramSize {
		return fmt.Errorf("%d tokens, above the ceiling of %d", len(p.Toks), maxProgramSize)
	}
	n := 1 // the final opMatch
	for _, t := range p.Toks {
		sz := t.size()
		if sz > maxProgramSize-n {
			return fmt.Errorf("lowers to more than the ceiling of %d instructions", maxProgramSize)
		}
		n += sz
	}
	return nil
}

// classSets caches the byte membership of every token class, derived
// from tokens.ClassOf so the matcher agrees byte-for-byte with the lexer.
var classSets = func() map[tokens.Class]byteSet {
	sets := make(map[tokens.Class]byteSet)
	for _, c := range []tokens.Class{
		tokens.ClassDigit, tokens.ClassLetter, tokens.ClassSymbol,
		tokens.ClassSpace, tokens.ClassAlnum, tokens.ClassAny, tokens.ClassNone,
	} {
		var s byteSet
		for b := 0; b < 256; b++ {
			if c.Generalizes(tokens.ClassOf(byte(b))) {
				s.add(byte(b))
			}
		}
		sets[c] = s
	}
	return sets
}()

var (
	digitSet = classSets[tokens.ClassDigit]
	signSet  = func() byteSet {
		var s byteSet
		s.add('+')
		s.add('-')
		return s
	}()
	dotSet = func() byteSet {
		var s byteSet
		s.add('.')
		return s
	}()
)

type compiler struct {
	insts   []inst
	preds   []byteSet
	predIdx map[byteSet]uint16
	// tok parallels insts: the pattern-token index each instruction was
	// emitted for. Failure attribution (Program.Explain) maps the point
	// where matching died back to the token the matcher was consuming;
	// the final opMatch carries the one-past-the-end index.
	tok []uint16
	cur uint16
}

func (c *compiler) pred(s byteSet) uint16 {
	if i, ok := c.predIdx[s]; ok {
		return i
	}
	i := uint16(len(c.preds))
	c.preds = append(c.preds, s)
	c.predIdx[s] = i
	return i
}

func (c *compiler) pc() int32 { return int32(len(c.insts)) }

func (c *compiler) emit(in inst) {
	c.insts = append(c.insts, in)
	c.tok = append(c.tok, c.cur)
}

func (c *compiler) emitByte(pred uint16) {
	c.emit(inst{op: opByte, pred: pred})
}

// emitSplit emits a split with both targets unset; the caller patches
// x and y.
func (c *compiler) emitSplit() int32 {
	c.emit(inst{op: opSplit})
	return c.pc() - 1
}

func (c *compiler) emitJmp() int32 {
	c.emit(inst{op: opJmp})
	return c.pc() - 1
}

// Compile builds the matching program for a pattern. It always
// succeeds: every pattern the language can express is regular.
func Compile(p Pattern) *Program {
	prog := compileNFA(p)
	if len(prog.insts) <= maxDFAInsts {
		prog.dfa = determinize(prog)
	}
	return prog
}

// compileNFA builds the pike-VM form without determinization: what the
// one-off Pattern.Match runs, and what tests use to exercise the
// fallback path. Compile layers the DFA on top.
func compileNFA(p Pattern) *Program {
	c := &compiler{predIdx: make(map[byteSet]uint16)}
	for i, t := range p.Toks {
		c.cur = uint16(i)
		c.token(t)
	}
	c.cur = uint16(len(p.Toks)) // end-of-pattern marker for opMatch
	c.emit(inst{op: opMatch})
	return &Program{insts: c.insts, preds: c.preds, tokOf: c.tok, numToks: len(p.Toks)}
}

func (c *compiler) token(t Tok) {
	switch t.Kind {
	case KindLiteral:
		var guard int32 = -1
		if t.Opt {
			guard = c.emitSplit()
			c.insts[guard].x = c.pc()
		}
		for i := 0; i < len(t.Lit); i++ {
			var s byteSet
			s.add(t.Lit[i])
			c.emitByte(c.pred(s))
		}
		if guard >= 0 {
			c.insts[guard].y = c.pc()
		}
	case KindNum:
		var guard int32 = -1
		if t.Opt {
			guard = c.emitSplit()
			c.insts[guard].x = c.pc()
		}
		// sign?
		s := c.emitSplit()
		c.insts[s].x = c.pc()
		c.emitByte(c.pred(signSet))
		c.insts[s].y = c.pc()
		// digit+
		c.plus(c.pred(digitSet))
		// ('.' digit+)?
		f := c.emitSplit()
		c.insts[f].x = c.pc()
		c.emitByte(c.pred(dotSet))
		c.plus(c.pred(digitSet))
		c.insts[f].y = c.pc()
		if guard >= 0 {
			c.insts[guard].y = c.pc()
		}
	default: // KindClass
		pred := c.pred(classSets[t.Class])
		min := t.Min
		if min < 0 {
			min = 0
		}
		if t.Max != Unbounded && t.Max < min {
			// A bound like {2,1} matches nothing — no count lies in the
			// empty range. Emit a dead-end byte with an empty predicate.
			c.emitByte(c.pred(byteSet{}))
			return
		}
		for i := 0; i < min; i++ {
			c.emitByte(pred)
		}
		if t.Max == Unbounded {
			c.star(pred)
			return
		}
		// (max-min) optional repetitions, each splitting to the token
		// end so shorter counts remain reachable.
		var pending []int32
		for i := min; i < t.Max; i++ {
			s := c.emitSplit()
			c.insts[s].x = c.pc()
			pending = append(pending, s)
			c.emitByte(pred)
		}
		end := c.pc()
		for _, s := range pending {
			c.insts[s].y = end
		}
	}
}

// plus emits pred+ (one required repetition, then a loop).
func (c *compiler) plus(pred uint16) {
	c.emitByte(pred)
	c.star(pred)
}

// star emits pred*.
func (c *compiler) star(pred uint16) {
	s := c.emitSplit()
	c.insts[s].x = c.pc()
	c.emitByte(pred)
	j := c.emitJmp()
	c.insts[j].x = s
	c.insts[s].y = c.pc()
}

// determinize runs subset construction over the program's compressed
// byte alphabet, returning nil when the state or work cap is exceeded.
func determinize(p *Program) *dfaTable {
	d := &dfaTable{}
	// Compress the 256-byte alphabet: bytes with identical membership
	// across every predicate transition identically and share a symbol.
	type symInfo struct {
		id  uint8
		rep byte
	}
	sig := make([]byte, (len(p.preds)+7)/8)
	classes := make(map[string]symInfo)
	reps := make([]byte, 0, 16)
	for b := 0; b < 256; b++ {
		for i := range sig {
			sig[i] = 0
		}
		for pi := range p.preds {
			if p.preds[pi].has(byte(b)) {
				sig[pi>>3] |= 1 << (pi & 7)
			}
		}
		key := string(sig)
		info, ok := classes[key]
		if !ok {
			info = symInfo{id: uint8(len(reps)), rep: byte(b)}
			classes[key] = info
			reps = append(reps, byte(b))
		}
		d.symtab[b] = info.id
	}
	d.numSym = len(reps)

	// Closure of a set of NFA pcs, as a sorted, deduplicated pc list of
	// byte/match instructions. The result lives in scratch until the
	// next call; only a set that becomes a new state is copied out, so a
	// transition into a known state allocates nothing.
	mark := make([]uint32, len(p.insts)) // pc was visited in closure number mark[pc]
	var epoch uint32
	var stack, scratch, moved []int32
	closure := func(seeds []int32) []int32 {
		epoch++
		stack = append(stack[:0], seeds...)
		out := scratch[:0]
		for len(stack) > 0 {
			pc := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if mark[pc] == epoch {
				continue
			}
			mark[pc] = epoch
			switch in := &p.insts[pc]; in.op {
			case opSplit:
				stack = append(stack, in.x, in.y)
			case opJmp:
				stack = append(stack, in.x)
			default:
				out = append(out, pc)
			}
		}
		slices.Sort(out)
		scratch = out
		return out
	}
	var keyBuf []byte
	key := func(set []int32) []byte {
		keyBuf = keyBuf[:0]
		for _, pc := range set {
			keyBuf = binary.LittleEndian.AppendUint32(keyBuf, uint32(pc))
		}
		return keyBuf
	}

	start := slices.Clone(closure([]int32{0}))
	work := len(start)
	states := [][]int32{start}
	ids := map[string]int32{string(key(start)): 0}
	for si := 0; si < len(states); si++ {
		for sym := 0; sym < d.numSym; sym++ {
			rep := reps[sym]
			moved = moved[:0]
			for _, pc := range states[si] {
				in := &p.insts[pc]
				if in.op == opByte && p.preds[in.pred].has(rep) {
					moved = append(moved, pc+1)
				}
			}
			if len(moved) == 0 {
				d.next = append(d.next, -1)
				continue
			}
			next := closure(moved)
			if work += len(next); work > maxDFAWork {
				return nil
			}
			k := key(next)
			id, ok := ids[string(k)]
			if !ok {
				if len(states) >= maxDFAStates {
					return nil
				}
				id = int32(len(states))
				ids[string(k)] = id
				states = append(states, slices.Clone(next))
			}
			d.next = append(d.next, id)
		}
	}

	d.accept = make([]bool, len(states))
	d.stateTok = make([]uint16, len(states))
	d.stateHasByte = make([]bool, len(states))
	for si := range states {
		// stateTok is the earliest pattern token any live byte instruction
		// of this state belongs to — the token the matcher is consuming
		// when it sits here. A state with no byte instructions can only
		// accept; its token is the end-of-pattern marker.
		minTok := uint16(p.numToks)
		for _, pc := range states[si] {
			switch p.insts[pc].op {
			case opMatch:
				d.accept[si] = true
			case opByte:
				d.stateHasByte[si] = true
				if t := p.tokOf[pc]; t < minTok {
					minTok = t
				}
			}
		}
		d.stateTok[si] = minTok
	}
	if len(states) <= maxFlatStates {
		// Widen to a byte-indexed table: one load per input byte in the
		// hot loop. The dead state becomes a real self-looping row (the
		// last one) so the loop needs no per-byte dead test. 512 states ×
		// 256 × 4 B caps this at ~512 KiB; typical inferred patterns need
		// a few dozen states (~tens of KiB).
		dead := uint32(len(states))
		d.flat = make([]uint32, (len(states)+1)*256)
		for si := 0; si < len(states); si++ {
			for b := 0; b < 256; b++ {
				nxt := d.next[si*d.numSym+int(d.symtab[b])]
				if nxt < 0 {
					d.flat[si<<8|b] = dead
				} else {
					d.flat[si<<8|b] = uint32(nxt)
				}
			}
		}
		for b := 0; b < 256; b++ {
			d.flat[int(dead)<<8|b] = dead
		}
		d.flatAccept = make([]bool, len(states)+1)
		copy(d.flatAccept, d.accept)
	}
	return d
}

// maxFlatStates bounds the byte-indexed fast table; larger automata use
// the compressed-alphabet table.
const maxFlatStates = 512
