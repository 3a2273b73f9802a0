package domain

// The closed-vocabulary domain wires internal/dictval — previously
// reachable only through the root AutoInfer facade — into the domain
// registry. Unlike the built-ins, a vocabulary validator is *learned*
// per column: the dictionary comes from the stream's training values
// (dictval's set-expansion machinery), is persisted alongside the
// stream's rule, and is reconstructed with NewVocabulary after a
// restart. It therefore is not init()-registered; Detect never proposes
// it, Propose does.

import (
	"errors"
	"fmt"
	"sort"

	"autovalidate/internal/dictval"
)

// VocabularyName is the Detection.Name reported for learned
// closed-vocabulary domains.
const VocabularyName = "vocabulary"

// vocabValidator is a dictval rule adapted to the Validator interface:
// membership in the learned dictionary is the semantic check.
type vocabValidator struct {
	base
	rule *dictval.Rule
}

// NewVocabulary builds a closed-vocabulary Validator over the given
// words, backed by a dictval rule. It is the reconstruction path for a
// persisted stream domain; callers register it dynamically only if they
// want registry-wide lookup.
func NewVocabulary(words []string) Validator {
	rule := &dictval.Rule{
		Dict:       make(map[string]struct{}, len(words)),
		TrainTotal: len(words),
		Alpha:      dictval.DefaultOptions().Alpha,
		Test:       dictval.DefaultOptions().Test,
	}
	for _, w := range words {
		rule.Dict[w] = struct{}{}
	}
	return &vocabValidator{
		base: base{
			name:     VocabularyName,
			domain:   "vocabulary",
			desc:     fmt.Sprintf("closed vocabulary of %d values (dictval-backed)", len(rule.Dict)),
			patterns: []string{"<letter>+", "<alnum>+"},
			priority: 10,
		},
		rule: rule,
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
	if _, ok := v.rule.Dict[string(b)]; !ok { // a map index by string(b) does not copy b
		return errVocabUnknown
	}
	return nil
}

// Rule exposes the underlying dictval rule, whose batch-level Validate
// adds the §4 two-sample out-of-dictionary drift test on top of the
// per-value membership this Validator reports.
func (v *vocabValidator) Rule() *dictval.Rule { return v.rule }

// Vocabulary-proposal heuristics, shared with the root AutoInfer
// facade: a column is vocabulary-like when it is large enough to judge
// and its distinct-value ratio is small.
const (
	categoricalDistinctRatio = 0.1
	minCategoricalSize       = 50
)

// LooksCategorical reports whether a column plausibly draws from a
// fixed vocabulary.
func LooksCategorical(values []string) bool {
	if len(values) < minCategoricalSize {
		return false
	}
	distinct := map[string]struct{}{}
	for _, v := range values {
		distinct[v] = struct{}{}
	}
	return float64(len(distinct)) <= categoricalDistinctRatio*float64(len(values))
}

// proposeVocabulary learns a dictionary domain from the training values
// when they look categorical. The dictionary is learned with dictval
// (no corpus expansion here — the service's training sample is the
// vocabulary source), and returned sorted so persisted streams encode
// deterministically.
func proposeVocabulary(values []string) (Detection, bool) {
	if !LooksCategorical(values) {
		return Detection{}, false
	}
	rule, err := dictval.Infer(values, nil, dictval.DefaultOptions())
	if err != nil {
		return Detection{}, false
	}
	words := make([]string, 0, len(rule.Dict))
	for w := range rule.Dict {
		words = append(words, w)
	}
	sort.Strings(words)
	return Detection{
		Name:       VocabularyName,
		Family:     "vocabulary",
		Confidence: 1, // by construction: the dictionary covers the sample
		Sampled:    len(values),
		Valid:      len(values),
		Vocab:      words,
	}, true
}
