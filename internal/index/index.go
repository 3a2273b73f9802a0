// Package index implements Auto-Validate's offline index (paper §2.4):
// one scan of the corpus T enumerates the pattern space P(D) of every
// column D, pre-aggregating each pattern's corpus-wide estimated
// false-positive rate FPR_T(p) (Definition 3) and coverage Cov_T(p), so
// that online inference needs only O(1) lookups per hypothesis instead of
// a corpus scan.
//
// The index is one map, pattern key → (Σ Imp, Cov), built by the
// map-reduce job, persisted as one binary section in key order, and
// merged with incremental deltas by one combine loop.
package index

import (
	"fmt"
	"iter"
	"maps"
	"sort"

	"autovalidate/internal/corpus"
	"autovalidate/internal/mapreduce"
	"autovalidate/internal/pattern"
)

// Entry is the pre-aggregated evidence for one pattern.
type Entry struct {
	// SumImp is Σ_D Imp_D(p) over the Cov columns where the pattern
	// matches at least one value, so FPR_T(p) = SumImp / Cov (Eq. 4).
	SumImp float64
	// Cov is Cov_T(p): the number of columns containing at least one
	// matching value (Eq. 7's left-hand side).
	Cov uint32
	// Tokens is the pattern's token count, kept for the Figure 13
	// analysis.
	Tokens uint16
}

// FPR returns the estimated false-positive rate FPR_T(p).
func (e Entry) FPR() float64 {
	if e.Cov == 0 {
		return 1
	}
	return e.SumImp / float64(e.Cov)
}

// Index is the offline index over a corpus.
type Index struct {
	// entries maps each pattern key to its evidence. Never nil.
	entries map[string]Entry
	// Enum records the enumeration options the index was built with;
	// queries should enumerate hypotheses compatibly (notably the same
	// τ) or risk lookup misses.
	Enum pattern.EnumOptions
	// Columns is the number of corpus columns scanned, and SkippedWide
	// the number skipped entirely because every value exceeded τ
	// tokens (compensated at query time by vertical cuts, §3).
	Columns     int
	SkippedWide int
	// Generation counts the ingest batches folded into the index since
	// its initial build: a fresh Build is generation 0 and every
	// IngestColumns / ApplyDelta advances it by one. Deltas record the
	// generation they were built against, so a base index and a chain
	// of persisted deltas compact deterministically and out-of-order
	// application is detected rather than silently double-counted.
	Generation uint64
}

// New returns an empty index. Callers write index.New(); the ignored
// variadic argument exists only for benchmark/cluster.go, which still
// calls index.New(index.DefaultShards()).
func New(...int) *Index { return &Index{entries: make(map[string]Entry)} }

// DefaultShards returns 1. Its one caller is benchmark/cluster.go, as
// the argument to New.
func DefaultShards() int { return 1 }

// All iterates over every (key, entry) pair.
func (idx *Index) All() iter.Seq2[string, Entry] { return maps.All(idx.entries) }

// BuildOptions configure an offline build.
type BuildOptions struct {
	// Enum are the enumeration options; MinSupport here is the
	// in-column support below which a pattern is not recorded as local
	// evidence (Algorithm 1's coverage threshold).
	Enum pattern.EnumOptions
	// Workers is the map parallelism (0 = GOMAXPROCS).
	Workers int
	// Progress is called as columns complete. It may be invoked
	// concurrently from multiple workers.
	Progress func(done, total int)
}

// DefaultBuildOptions returns the build settings used in experiments:
// τ = 8 (the paper's recommended cheap setting) with default pruning.
func DefaultBuildOptions() BuildOptions {
	enum := pattern.DefaultEnumOptions()
	enum.MaxTokens = 8
	return BuildOptions{Enum: enum}
}

// wideSentinel is the reserved aggregation key counting fully-skipped
// columns; its Cov field carries the count. It contains a NUL byte, which
// no canonical pattern key does.
const wideSentinel = "\x00wide"

// Build scans the columns and produces the offline index. The scan runs
// on the map-reduce substrate: each column maps to its local pattern
// evidence {(p, Imp_D(p))}, combined by summation — the same dataflow as
// the paper's SCOPE job, with the reduce output adopted as the index.
func Build(cols []*corpus.Column, opt BuildOptions) *Index {
	entries := mapreduce.Run(
		mapreduce.Config{Workers: opt.Workers, Progress: opt.Progress},
		cols,
		func(col *corpus.Column, emit func(string, Entry)) {
			res := pattern.Enumerate(col.Values, opt.Enum)
			if res.Total > 0 && res.Wide == res.Total {
				emit(wideSentinel, Entry{Cov: 1})
				return
			}
			for _, c := range res.Candidates {
				imp := float64(res.Total-c.Matched) / float64(res.Total)
				emit(c.Key, Entry{
					SumImp: imp,
					Cov:    1,
					Tokens: uint16(c.Pattern.TokenCount()),
				})
			}
		},
		combineEntries)

	idx := &Index{
		entries: entries,
		Enum:    opt.Enum,
		Columns: len(cols),
	}
	if e, ok := entries[wideSentinel]; ok {
		idx.SkippedWide = int(e.Cov)
		delete(entries, wideSentinel)
	}
	return idx
}

// Lookup returns the evidence for a pattern key.
func (idx *Index) Lookup(key string) (Entry, bool) {
	e, ok := idx.entries[key]
	return e, ok
}

// LookupPattern returns the evidence for a pattern.
func (idx *Index) LookupPattern(p pattern.Pattern) (Entry, bool) {
	return idx.Lookup(p.Key())
}

// Size returns the number of distinct indexed patterns.
func (idx *Index) Size() int { return len(idx.entries) }

// String summarizes the index.
func (idx *Index) String() string {
	return fmt.Sprintf("index{patterns=%d columns=%d skipped_wide=%d tau=%d gen=%d}",
		idx.Size(), idx.Columns, idx.SkippedWide, idx.Enum.MaxTokens, idx.Generation)
}

// HeadPattern is one "common domain" pattern from the head of the index.
type HeadPattern struct {
	Key string
	Entry
}

// Head returns patterns with coverage at least minCov and FPR at most
// maxFPR, ordered by descending coverage — the paper's §5.3 "head
// patterns" analysis that surfaces the common domains of the lake.
func (idx *Index) Head(minCov uint32, maxFPR float64) []HeadPattern {
	var out []HeadPattern
	for k, e := range idx.All() {
		if e.Cov >= minCov && e.FPR() <= maxFPR {
			out = append(out, HeadPattern{Key: k, Entry: e})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cov != out[j].Cov {
			return out[i].Cov > out[j].Cov
		}
		return out[i].Key < out[j].Key
	})
	return out
}
