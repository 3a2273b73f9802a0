package domain

// The closed-vocabulary domain. Unlike the built-ins, a vocabulary
// validator is *learned* per column: its word set is the distinct values
// of the stream's training column, persisted alongside the stream's rule
// and reconstructed with NewVocabulary after a restart. It therefore is
// not init()-registered; Detect never proposes it, Propose does.

import (
	"errors"
	"fmt"
	"maps"
	"slices"
)

// VocabularyName is the Detection.Name reported for learned
// closed-vocabulary domains.
const VocabularyName = "vocabulary"

// vocabValidator is a learned word set adapted to the Validator
// interface: membership is the semantic check.
type vocabValidator struct {
	base
	words map[string]struct{}
}

// NewVocabulary builds a closed-vocabulary Validator over the given
// words. It is the reconstruction path for a persisted stream domain;
// callers register it dynamically only if they want registry-wide
// lookup.
func NewVocabulary(words []string) Validator {
	set := make(map[string]struct{}, len(words))
	for _, w := range words {
		set[w] = struct{}{}
	}
	return &vocabValidator{
		base: base{
			name:     VocabularyName,
			domain:   "vocabulary",
			desc:     fmt.Sprintf("closed vocabulary of %d values", len(set)),
			patterns: []string{"<letter>+", "<alnum>+"},
			priority: 10,
		},
		words: set,
	}
}

var (
	errVocabEmpty   = errors.New("vocabulary: empty value")
	errVocabUnknown = errors.New("vocabulary: value not in the learned dictionary")
)

func (*vocabValidator) CanValidate(b []byte) bool { return len(b) > 0 }

func (v *vocabValidator) Validate(b []byte) error {
	if len(b) == 0 {
		return errVocabEmpty
	}
	if _, ok := v.words[string(b)]; !ok { // a map index by string(b) does not copy b
		return errVocabUnknown
	}
	return nil
}

// Vocabulary-proposal heuristics: a column is vocabulary-like when it is
// large enough to judge and its distinct-value ratio is small.
const (
	categoricalDistinctRatio = 0.1
	minCategoricalSize       = 50
)

// proposeVocabulary learns a vocabulary domain from the training values
// when they look categorical. The vocabulary is every distinct training
// value — the empty string included when present — sorted so persisted
// streams encode deterministically.
func proposeVocabulary(values []string) (Detection, bool) {
	if len(values) < minCategoricalSize {
		return Detection{}, false
	}
	distinct := make(map[string]struct{})
	for _, v := range values {
		distinct[v] = struct{}{}
	}
	if float64(len(distinct)) > categoricalDistinctRatio*float64(len(values)) {
		return Detection{}, false
	}
	return Detection{
		Name:       VocabularyName,
		Family:     "vocabulary",
		Confidence: 1, // by construction: the vocabulary covers the sample
		Sampled:    len(values),
		Valid:      len(values),
		Vocab:      slices.Sorted(maps.Keys(distinct)),
	}, true
}
