package pattern

// Match reports whether the pattern matches the whole value (anchored at
// both ends) — the paper's h(v). It is the one-off entry: it lowers the
// pattern to its NFA and runs the pike VM once, without determinizing,
// so each call costs a few microseconds. Anything that matches many
// values against one pattern should Compile once and reuse the Program.
func (p Pattern) Match(v string) bool {
	_, ok, _ := runNFA(compileNFA(p), v)
	return ok
}
