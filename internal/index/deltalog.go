package index

import (
	"fmt"
	"sync"
)

// DeltaLog retains the chain of deltas applied to a live index so a
// replication layer can ship them to followers: a follower at generation
// g catches up by fetching every delta with Base >= g, in order. The log
// is the serving-side retention window of the cluster's replication
// protocol — a follower that has fallen behind the oldest retained delta
// must re-bootstrap from a full snapshot instead.
//
// Appends must arrive in application order (each delta's Base is the
// generation it was applied at), which the serving layer guarantees by
// appending inside its ingest critical section. All methods are safe for
// concurrent use.
type DeltaLog struct {
	mu     sync.Mutex
	retain int
	deltas []*Delta // contiguous chain, ascending Base
}

// DefaultDeltaRetention is the default number of deltas retained for
// followers; a follower further behind re-bootstraps from a snapshot.
const DefaultDeltaRetention = 64

// NewDeltaLog returns an empty log retaining at most retain deltas
// (<= 0 means DefaultDeltaRetention).
func NewDeltaLog(retain int) *DeltaLog {
	if retain <= 0 {
		retain = DefaultDeltaRetention
	}
	return &DeltaLog{retain: retain}
}

// Append records an applied delta. The delta must extend the chain: its
// Base must be exactly one past the previous delta's Base (the serving
// layer applies deltas one generation at a time). A gap is an error and
// the log resets to just the new delta, so Since can never serve a
// discontiguous chain.
func (l *DeltaLog) Append(d *Delta) error {
	if d == nil || d.Evidence == nil {
		return fmt.Errorf("index: delta log: nil delta")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.deltas); n > 0 && d.Base != l.deltas[n-1].Base+1 {
		prev := l.deltas[n-1].Base
		l.deltas = append(l.deltas[:0], d)
		return fmt.Errorf("index: delta log: delta at base %d does not extend chain ending at base %d; log reset",
			d.Base, prev)
	}
	l.deltas = append(l.deltas, d)
	if len(l.deltas) > l.retain {
		// Drop the oldest; copy so the backing array doesn't pin them.
		keep := make([]*Delta, l.retain)
		copy(keep, l.deltas[len(l.deltas)-l.retain:])
		l.deltas = keep
	}
	return nil
}

// Since returns the retained deltas a follower at generation gen still
// needs (those with Base >= gen), oldest first. ok is false when the
// follower is behind the retention window — its next delta has already
// been evicted — and must re-bootstrap from a snapshot. A follower that
// is fully caught up (or ahead, mid-race with a concurrent ingest) gets
// an empty slice with ok true.
func (l *DeltaLog) Since(gen uint64) (deltas []*Delta, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.deltas) == 0 {
		// Nothing retained: fine only if the follower needs nothing,
		// which the caller decides by comparing generations; an empty
		// log cannot prove continuity for an older follower, so report
		// ok and let the caller's generation comparison gate it.
		return nil, true
	}
	oldest := l.deltas[0].Base
	if gen < oldest {
		return nil, false
	}
	for _, d := range l.deltas {
		if d.Base >= gen {
			deltas = append(deltas, d)
		}
	}
	return deltas, true
}

// Len returns the number of retained deltas.
func (l *DeltaLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.deltas)
}
