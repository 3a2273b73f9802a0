package core

import "sync/atomic"

// Process-wide counts of inference work, so a running service can tell
// "the rule is wrong" from "the data drifted": how many candidate
// patterns inference considered and how many of them the index knew.
var (
	segmentsSolved       atomic.Uint64
	segmentsMemoized     atomic.Uint64
	candidatesEnumerated atomic.Uint64
	indexHits            atomic.Uint64
)

// Counters is a snapshot of the inference counters.
type Counters struct {
	// SegmentsSolved counts vertical-cut segments whose hypothesis space
	// was enumerated and scored from their position summaries (a segment
	// whose texts share no class shape has empty summaries, enumerates
	// nothing, and is memoized like any other); SegmentsMemoized those
	// answered by a leaf with the same position summaries already solved
	// through the same Memo: for the same column, or under Memo.Infer
	// for any earlier one.
	SegmentsSolved   uint64
	SegmentsMemoized uint64
	// Candidates counts patterns enumerated for scoring, and IndexHits
	// the ones the offline index had evidence for.
	Candidates uint64
	IndexHits  uint64
}

// ReadCounters returns the counters' current values.
func ReadCounters() Counters {
	return Counters{
		SegmentsSolved:   segmentsSolved.Load(),
		SegmentsMemoized: segmentsMemoized.Load(),
		Candidates:       candidatesEnumerated.Load(),
		IndexHits:        indexHits.Load(),
	}
}
