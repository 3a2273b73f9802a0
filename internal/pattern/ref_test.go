package pattern

import "autovalidate/internal/tokens"

// refMatch is the reference matcher the engines are tested against: the
// anchored match h(v) of §2.1 written the obvious way, sharing nothing
// with the compiler. reach[i] says that some split of the tokens seen so
// far consumes exactly v[:i]; each token extends every reachable offset
// by every length it can take there. The table is tokens × offsets, so
// the work is polynomial on any input and needs no step budget.
func refMatch(p Pattern, v string) bool {
	reach := make([]bool, len(v)+1)
	reach[0] = true
	for _, t := range p.Toks {
		next := make([]bool, len(v)+1)
		for si, ok := range reach {
			if !ok {
				continue
			}
			for _, end := range refEnds(t, v, si) {
				next[end] = true
			}
		}
		reach = next
	}
	return reach[len(v)]
}

// refEnds returns every offset token t can end at when it starts at si.
func refEnds(t Tok, v string, si int) []int {
	var ends []int
	switch t.Kind {
	case KindLiteral:
		if end := si + len(t.Lit); end <= len(v) && v[si:end] == t.Lit {
			ends = append(ends, end)
		}
	case KindNum:
		ends = refNumEnds(v, si)
	default:
		// The longest run of characters the class generalizes, cut to
		// the token's bounds.
		run := 0
		for si+run < len(v) && t.Class.Generalizes(tokens.ClassOf(v[si+run])) {
			run++
		}
		if t.Max != Unbounded && t.Max < run {
			run = t.Max
		}
		for n := max(t.Min, 0); n <= run; n++ {
			ends = append(ends, si+n)
		}
		return ends // class tokens are optional through Min = 0, not Opt
	}
	if t.Opt {
		ends = append(ends, si)
	}
	return ends
}

// refNumEnds returns the end offsets of a <num> starting at si:
// sign? digits ( '.' digits )?, every digit count being a valid end.
func refNumEnds(v string, si int) []int {
	i := si
	if i < len(v) && (v[i] == '+' || v[i] == '-') {
		i++
	}
	d0 := i
	for i < len(v) && v[i] >= '0' && v[i] <= '9' {
		i++
	}
	var ends []int
	for k := d0 + 1; k <= i; k++ {
		ends = append(ends, k) // integer endings
	}
	if i > d0 && i < len(v) && v[i] == '.' {
		for j := i + 1; j < len(v) && v[j] >= '0' && v[j] <= '9'; j++ {
			ends = append(ends, j+1) // fractional endings
		}
	}
	return ends
}
