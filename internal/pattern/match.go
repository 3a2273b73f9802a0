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

// MatchCount returns how many of the values the pattern matches.
func (p Pattern) MatchCount(values []string) int {
	misses, _ := CountMisses(Compile(p), values, nil, 0)
	return len(values) - misses
}

// Impurity returns Imp_D(p) per Definition 1 of the paper: the fraction
// of values in the column not matching the pattern. An empty column has
// zero impurity by convention.
func (p Pattern) Impurity(values []string) float64 {
	if len(values) == 0 {
		return 0
	}
	return float64(len(values)-p.MatchCount(values)) / float64(len(values))
}
