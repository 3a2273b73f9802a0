// Incremental maintenance of the offline index. The paper's production
// setting re-scans the lake continuously (§5's SCOPE job runs as a
// recurring cluster job); here the same aggregates — per-pattern SumImp
// and Cov plus corpus totals — are pure sums over columns, so new tables
// fold into an existing index as a delta build over just the new columns,
// and two independently built indexes merge by summing their evidence.
// Rebuilding from scratch is never required.

package index

import (
	"fmt"
	"maps"

	"autovalidate/internal/corpus"
)

// combineEntries sums two evidence entries for one pattern key; it is the
// combiner of every build, ingest, and merge dataflow. Tokens is a
// property of the key, so the first operand's value is kept.
func combineEntries(a, b Entry) Entry {
	a.SumImp += b.SumImp
	a.Cov += b.Cov
	return a
}

// addEvidence folds src's per-pattern evidence into dst.
func addEvidence(dst, src map[string]Entry) {
	for k, e := range src {
		if old, ok := dst[k]; ok {
			e = combineEntries(old, e)
		}
		dst[k] = e
	}
}

// Delta is the evidence contributed by one batch of newly arrived
// columns, built against a specific generation of a base index. A delta
// is small (its own keys only), persists independently of the base
// (SaveDelta / LoadDelta), and folds into the base with ApplyDelta — or
// in bulk, in chain order, with Compact.
type Delta struct {
	// Evidence aggregates the batch exactly as Build would: per-pattern
	// SumImp / Cov, plus the batch's own Columns and SkippedWide
	// totals.
	Evidence *Index
	// Base is the Generation of the base index the delta was built
	// against. ApplyDelta refuses a delta whose Base does not match the
	// index's current generation, which is what makes a chain of deltas
	// compact deterministically.
	Base uint64
}

// BuildDelta scans a batch of new columns into a delta against base. The
// enumeration options come from the base index — mixing τ or pruning
// settings across increments would corrupt the aggregates — so only
// opt.Workers and opt.Progress are honored.
func BuildDelta(base *Index, cols []*corpus.Column, opt BuildOptions) *Delta {
	opt.Enum = base.Enum
	return &Delta{Evidence: Build(cols, opt), Base: base.Generation}
}

// ApplyDelta folds a delta into the index in place: per-pattern evidence
// and corpus totals add, and the generation advances by one. It fails —
// leaving the index untouched — if the delta was built against a
// different generation or with different enumeration options.
func (idx *Index) ApplyDelta(d *Delta) error {
	if d == nil || d.Evidence == nil {
		return fmt.Errorf("index: nil delta")
	}
	if d.Base != idx.Generation {
		return fmt.Errorf("index: delta built against generation %d cannot apply to generation %d",
			d.Base, idx.Generation)
	}
	if d.Evidence.Enum != idx.Enum {
		return fmt.Errorf("index: delta enumeration options %+v differ from index options %+v",
			d.Evidence.Enum, idx.Enum)
	}
	addEvidence(idx.entries, d.Evidence.entries)
	idx.Columns += d.Evidence.Columns
	idx.SkippedWide += d.Evidence.SkippedWide
	idx.Generation++
	return nil
}

// IngestColumns delta-builds the new columns (the same map-reduce
// dataflow as Build, over just the batch) and folds the result into the
// index, updating per-pattern coverage / FPR aggregates and the
// corpus totals. It returns the applied delta so callers can persist it
// with SaveDelta for replication or later compaction. Enumeration options
// are taken from the index itself; see BuildDelta. ApplyDelta cannot
// normally reject a delta built against this exact index, but if it does
// (a concurrent mutation slipped between build and apply) the error comes
// back to the caller instead of crashing the process.
func (idx *Index) IngestColumns(cols []*corpus.Column, opt BuildOptions) (*Delta, error) {
	d := BuildDelta(idx, cols, opt)
	if err := idx.ApplyDelta(d); err != nil {
		return nil, fmt.Errorf("index: ingest: self-built delta rejected: %w", err)
	}
	return d, nil
}

// Merge combines two independently built indexes over disjoint column
// sets into a new index; neither input is mutated. The result is
// identical (up to float summation order) to building one index over the
// union of the columns. Indexes built with different enumeration options
// cannot be merged.
func Merge(a, b *Index) (*Index, error) {
	if a.Enum != b.Enum {
		return nil, fmt.Errorf("index: cannot merge indexes with different enumeration options (%+v vs %+v)",
			a.Enum, b.Enum)
	}
	out := a.Clone()
	addEvidence(out.entries, b.entries)
	out.Columns = a.Columns + b.Columns
	out.SkippedWide = a.SkippedWide + b.SkippedWide
	out.Generation = a.Generation + b.Generation
	return out, nil
}

// Compact applies a chain of deltas onto a base index in order. The
// generation check on each link makes compaction deterministic: the same
// base and delta chain always produce the same index, and a gap or
// reordering in the chain is an error rather than a silent miscount.
// The whole chain is validated before anything is applied, so a broken
// chain leaves the base untouched rather than half-compacted.
func Compact(base *Index, deltas ...*Delta) error {
	gen := base.Generation
	for i, d := range deltas {
		switch {
		case d == nil || d.Evidence == nil:
			return fmt.Errorf("index: compacting delta %d of %d: nil delta", i+1, len(deltas))
		case d.Base != gen:
			return fmt.Errorf("index: compacting delta %d of %d: built against generation %d, chain is at %d",
				i+1, len(deltas), d.Base, gen)
		case d.Evidence.Enum != base.Enum:
			return fmt.Errorf("index: compacting delta %d of %d: enumeration options differ from base",
				i+1, len(deltas))
		}
		gen++
	}
	for i, d := range deltas {
		if err := base.ApplyDelta(d); err != nil {
			return fmt.Errorf("index: compacting delta %d of %d: %w", i+1, len(deltas), err)
		}
	}
	return nil
}

// Clone returns a deep copy of the index (Entry is a value type).
// Serving layers clone before ingesting so in-flight readers of the old
// index never observe a half-merged one.
func (idx *Index) Clone() *Index {
	out := *idx
	out.entries = maps.Clone(idx.entries)
	return &out
}
