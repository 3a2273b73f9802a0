package baselines

import (
	"autovalidate/internal/corpus"
)

// The schema-matching family (§5.2) broadens the training sample with
// "related" corpus columns before profiling: instance-based variants
// (SM-I-k) relate columns sharing at least k distinct values with the
// training data; pattern-based variants (SM-P-M / SM-P-P) relate columns
// whose majority / plurality token shape agrees. The pooled values then
// go through Potter's Wheel, the strongest profiler in the paper's
// experiments.

// maxPoolValues caps pooled training data for tractability.
const maxPoolValues = 4000

// SMInstance is SM-I-k: instance-based schema matching with overlap
// threshold K.
type SMInstance struct {
	K    int
	cols []*corpus.Column
	// distinctSets caches each corpus column's distinct values; the
	// corpus is scanned once, not per benchmark case.
	distinctSets [][]string
}

// Name implements Method.
func (m *SMInstance) Name() string {
	if m.K >= 10 {
		return "SM-I-10"
	}
	return "SM-I-1"
}

// SetCorpus implements CorpusMethod.
func (m *SMInstance) SetCorpus(cols []*corpus.Column) {
	m.cols = cols
	m.distinctSets = make([][]string, len(cols))
	for i, col := range cols {
		m.distinctSets[i] = distinct(col.Values)
	}
}

// Train implements Method.
func (m *SMInstance) Train(values []string) (Rule, error) {
	if len(values) == 0 {
		return nil, ErrNoRule
	}
	train := toSet(values)
	pool := append([]string{}, values...)
	for i, col := range m.cols {
		overlap := 0
		for _, v := range m.distinctSets[i] {
			if _, ok := train[v]; ok {
				overlap++
				if overlap >= m.K {
					break
				}
			}
		}
		if overlap >= m.K {
			pool = appendCapped(pool, col.Values)
		}
		if len(pool) >= maxPoolValues {
			break
		}
	}
	p, ok := MDLPattern(pool)
	if !ok {
		return nil, ErrNoRule
	}
	return newPatternRule(p), nil
}

// SMPattern is SM-P-M (majority) or SM-P-P (plurality): pattern-based
// schema matching.
type SMPattern struct {
	// Plurality selects the plurality-shape variant; otherwise the
	// majority-shape variant (which requires >50% agreement and is
	// stricter).
	Plurality bool
	cols      []*corpus.Column
	// majorities / pluralities cache each corpus column's shape.
	majorities  []string
	pluralities []string
}

// Name implements Method.
func (m *SMPattern) Name() string {
	if m.Plurality {
		return "SM-P-P"
	}
	return "SM-P-M"
}

// SetCorpus implements CorpusMethod.
func (m *SMPattern) SetCorpus(cols []*corpus.Column) {
	m.cols = cols
	m.majorities = make([]string, len(cols))
	m.pluralities = make([]string, len(cols))
	for i, col := range cols {
		m.majorities[i], m.pluralities[i] = majorityShape(col.Values)
	}
}

// Train implements Method.
func (m *SMPattern) Train(values []string) (Rule, error) {
	if len(values) == 0 {
		return nil, ErrNoRule
	}
	maj, plu := majorityShape(values)
	want := maj
	if m.Plurality {
		want = plu
	}
	if want == "" {
		return nil, ErrNoRule
	}
	pool := append([]string{}, values...)
	for i, col := range m.cols {
		got := m.majorities[i]
		if m.Plurality {
			got = m.pluralities[i]
		}
		if got == want {
			pool = appendCapped(pool, col.Values)
		}
		if len(pool) >= maxPoolValues {
			break
		}
	}
	p, ok := MDLPattern(pool)
	if !ok {
		return nil, ErrNoRule
	}
	return newPatternRule(p), nil
}

func appendCapped(pool []string, more []string) []string {
	room := maxPoolValues - len(pool)
	if room <= 0 {
		return pool
	}
	if len(more) > room {
		more = more[:room]
	}
	return append(pool, more...)
}
