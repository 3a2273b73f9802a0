package pattern_test

import (
	"testing"

	"autovalidate/internal/corpus"
	"autovalidate/internal/datagen"
	"autovalidate/internal/index"
	"autovalidate/internal/pattern"
)

// TestLakePatternsGetADFA: the caps on determinisation move adversarial
// patterns to the pike VM, never an inferred one — every pattern in the
// indexes of the quick evaluation lakes (τ = 8) still compiles to a DFA.
func TestLakePatternsGetADFA(t *testing.T) {
	enum := pattern.DefaultEnumOptions()
	enum.MaxTokens = 8
	for _, lake := range []*corpus.Corpus{
		datagen.Generate(datagen.Enterprise(60, 1)),
		datagen.Generate(datagen.Government(40, 2)),
	} {
		idx := index.Build(lake.Columns(), index.BuildOptions{Enum: enum})
		for key := range idx.All() {
			p, err := pattern.Parse(key)
			if err != nil {
				t.Fatalf("index key %q does not parse: %v", key, err)
			}
			if mode := pattern.Compile(p).Mode(); mode != "dfa" {
				t.Errorf("%q compiles to %s, want dfa", key, mode)
			}
		}
	}
}
