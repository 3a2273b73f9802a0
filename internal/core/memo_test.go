package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"autovalidate/internal/datagen"
	"autovalidate/internal/pattern"
	"autovalidate/internal/validate"
)

// memoColumn is one fresh column of a generator domain.
type memoColumn struct {
	name   string
	values []string
}

// memoColumns draws seeds fresh 60-value columns of every generator
// domain.
func memoColumns(t *testing.T, seeds int) []memoColumn {
	var domains []datagen.Domain
	domains = append(domains, datagen.EnterpriseDomains()...)
	domains = append(domains, datagen.GovernmentDomains()...)
	domains = append(domains, datagen.NLDomains()...)
	var cols []memoColumn
	for _, d := range domains {
		for seed := range seeds {
			cols = append(cols, memoColumn{fmt.Sprintf("%s/%d", d.Name, seed), fresh(t, d.Name, 60, int64(500+seed))})
		}
	}
	return cols
}

// memoDisagreement describes how the memo's answer for values departs
// from Infer's alone, "" when it does not.
func memoDisagreement(m *Memo, values []string) string {
	got, errG := m.Infer(values)
	want, errW := Infer(values, m.idx, m.opt)
	return outcomeDiff(got, errG, want, errW)
}

// outcomeDiff describes how one inference's outcome departs from
// another's, "" when it does not: the same error, or a rule with the same
// JSON bytes and the same segments.
func outcomeDiff(got *validate.Rule, errG error, want *validate.Rule, errW error) string {
	if errG != nil || errW != nil {
		if fmt.Sprint(errG) != fmt.Sprint(errW) {
			return fmt.Sprintf("error %v, want %v", errG, errW)
		}
		return ""
	}
	if d := ruleDiff(got, want); d != "" {
		return d
	}
	gb, _ := json.Marshal(got)
	wb, _ := json.Marshal(want)
	if !bytes.Equal(gb, wb) {
		return fmt.Sprintf("rule %s, want %s", gb, wb)
	}
	return ""
}

// Every generator domain's columns, inferred in a shuffled order through
// one memo per strategy, get the rules Infer gives each alone, and the
// vertical strategies solve fewer segments through the memo than alone.
func TestSharedMemoAgreesWithFresh(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 2
	}
	idx := testIndex(t)
	cols := memoColumns(t, seeds)
	for _, st := range allStrategies {
		m := NewMemo(idx, testOptions(st))
		var sharedSolved, freshSolved uint64
		for _, i := range rand.New(rand.NewSource(int64(st))).Perm(len(cols)) {
			c0 := ReadCounters()
			got, errG := m.Infer(cols[i].values)
			c1 := ReadCounters()
			want, errW := Infer(cols[i].values, idx, m.opt)
			c2 := ReadCounters()
			sharedSolved += c1.SegmentsSolved - c0.SegmentsSolved
			freshSolved += c2.SegmentsSolved - c1.SegmentsSolved
			if d := outcomeDiff(got, errG, want, errW); d != "" {
				t.Fatalf("%s %s: %s", cols[i].name, st, d)
			}
		}
		switch st {
		case FMDVH: // no leaf
			if m.Len() != 0 {
				t.Errorf("%s: memo holds %d leaves", st, m.Len())
			}
		case FMDV:
			if m.Len() == 0 || m.Len() >= len(cols) {
				t.Errorf("%s: memo holds %d leaves of %d columns", st, m.Len(), len(cols))
			}
		default:
			if sharedSolved == 0 || sharedSolved >= freshSolved {
				t.Errorf("%s: %d segments solved through one memo, %d alone", st, sharedSolved, freshSolved)
			}
		}
	}
}

// Four goroutines share one memo (run under -race), each inferring the
// infer_ingest columns in its own order, and agree with Infer alone.
func TestSharedMemoAgreesConcurrently(t *testing.T) {
	idx := testIndex(t)
	var columns [][]string
	for _, domain := range inferIngestDomains {
		for seed := range 3 {
			columns = append(columns, fresh(t, domain, 60, int64(600+seed)))
		}
	}
	for _, st := range []Strategy{FMDV, FMDVVH} {
		m := NewMemo(idx, testOptions(st))
		var wg sync.WaitGroup
		for g := range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, i := range rand.New(rand.NewSource(int64(g))).Perm(len(columns)) {
					if d := memoDisagreement(m, columns[i]); d != "" {
						t.Errorf("column %d %s: %s", i, st, d)
					}
				}
			}()
		}
		wg.Wait()
	}
}

// A memo that is full is cleared before the next leaf goes in, and the
// rules stay Infer's.
func TestMemoClearsWhenFull(t *testing.T) {
	idx := testIndex(t)
	m := NewMemo(idx, testOptions(FMDVVH))
	// No real key starts with 'x': that would be 120 merged positions.
	bogus := leafResult{ok: true, pat: pattern.New(pattern.Lit("bogus"))}
	for i := range maxMemoLeaves {
		m.leaves[fmt.Sprintf("x%d", i)] = bogus
	}
	for _, domain := range inferIngestDomains {
		if d := memoDisagreement(m, fresh(t, domain, 100, 7)); d != "" {
			t.Fatalf("%s: %s", domain, d)
		}
		if n := m.Len(); n == 0 || n >= maxMemoLeaves {
			t.Fatalf("%s: memo holds %d leaves, want fewer than the cap of %d after clearing", domain, n, maxMemoLeaves)
		}
	}
	for key := range m.leaves {
		if strings.HasPrefix(key, "x") {
			t.Fatalf("leaf %q survived the clearing", key)
		}
	}
}
