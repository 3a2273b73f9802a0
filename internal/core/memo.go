package core

import (
	"sync"

	"autovalidate/internal/index"
	"autovalidate/internal/pattern"
	"autovalidate/internal/validate"
)

// Memo holds the leaves solved against one index under one set of
// options, for every column inferred through it: a DP segment's or, under
// flat FMDV at θ = 0, a whole column's. A leaf's best pattern is a
// function of its two position summaries, the index and the options
// alone, so fresh columns of a recurring domain — the paper's lake of
// machine-generated data — fold into summaries an earlier column already
// solved. A server holds one per served index snapshot; a new snapshot
// starts an empty one, and the old one goes with the old snapshot.
//
// A Memo is safe for concurrent use. Two inferences that solve the same
// leaf at once store the same result, so a race costs time only. The
// results it holds are never written to: a rule gets tokens of its own
// (buildRule).
type Memo struct {
	idx *index.Index
	opt Options

	mu     sync.RWMutex
	leaves map[string]leafResult // by spellKey: merged summary, then fine
}

// maxMemoLeaves bounds a memo; one that is full is cleared. 357 leaves
// served 420 fresh columns of the seven infer_ingest domains.
const maxMemoLeaves = 1 << 12

// leafResult is the best unsplit pattern of a leaf's texts, before a
// segment's gaps are accounted for.
type leafResult struct {
	ok  bool
	fpr float64
	pat pattern.Pattern
}

// NewMemo returns an empty memo for inferences against idx under opt.
func NewMemo(idx *index.Index, opt Options) *Memo {
	return &Memo{idx: idx, opt: opt, leaves: map[string]leafResult{}}
}

// Infer is Infer(values, idx, opt) for the memo's index and options, with
// each leaf answered by the memo when an earlier inference solved it. The
// rule is the one Infer returns.
func (m *Memo) Infer(values []string) (*validate.Rule, error) {
	return infer(values, m.idx, m.opt, m)
}

// Len reports how many leaves the memo holds.
func (m *Memo) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.leaves)
}

// leaf returns the best pattern of the texts folded into lf's summaries,
// and whether the memo had it. A nil memo solves the leaf and keeps it
// nowhere: flat FMDV through Infer, whose one leaf a fresh memo could
// never answer.
func (m *Memo) leaf(lf *leafScorer) (res leafResult, hit bool) {
	if m == nil {
		return lf.best(), false
	}
	lf.spellKey()
	m.mu.RLock()
	res, hit = m.leaves[string(lf.key)]
	m.mu.RUnlock()
	if hit {
		return res, true
	}
	res = lf.best()
	m.mu.Lock()
	if len(m.leaves) >= maxMemoLeaves {
		clear(m.leaves)
	}
	m.leaves[string(lf.key)] = res
	m.mu.Unlock()
	return res, false
}
