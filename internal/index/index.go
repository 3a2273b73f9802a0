// Package index implements Auto-Validate's offline index (paper §2.4):
// one scan of the corpus T enumerates the pattern space P(D) of every
// column D, pre-aggregating each pattern's corpus-wide estimated
// false-positive rate FPR_T(p) (Definition 3) and coverage Cov_T(p), so
// that online inference needs only O(1) lookups per hypothesis instead of
// a corpus scan.
//
// The pattern space is partitioned by key hash into independent shards.
// Each shard is built lock-free by the shard-aware map-reduce job (one
// merge goroutine per shard, no cross-shard rehash), persisted as its own
// binary section, and loaded in parallel — the unit of scale every
// serving-layer feature builds on.
package index

import (
	"fmt"
	"hash/fnv"
	"iter"
	"runtime"
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

// Index is the offline index over a corpus, sharded by pattern-key hash.
type Index struct {
	// shards partitions the pattern space: shards[shardOf(key,
	// len(shards))] holds key. Always non-empty.
	shards []map[string]Entry
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

// New returns an empty index with nshards shards (clamped to at least 1).
func New(nshards int) *Index {
	if nshards < 1 {
		nshards = 1
	}
	shards := make([]map[string]Entry, nshards)
	for s := range shards {
		shards[s] = make(map[string]Entry)
	}
	return &Index{shards: shards}
}

// DefaultShards returns the default shard count: GOMAXPROCS rounded up to
// a power of two, clamped to [8, 64]. Enough shards that building and
// loading parallelize across available cores, few enough that tiny
// corpora don't pay per-shard overhead.
func DefaultShards() int {
	n := 8
	for n < runtime.GOMAXPROCS(0) && n < 64 {
		n *= 2
	}
	return n
}

// shardOf maps a pattern key to its shard with FNV-1a, which is stable
// across processes — the persisted format depends on it.
func shardOf(key string, nshards int) int {
	if nshards == 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(nshards))
}

// NumShards returns the shard count.
func (idx *Index) NumShards() int { return len(idx.shards) }

// put inserts or replaces one entry.
func (idx *Index) put(key string, e Entry) {
	idx.shards[shardOf(key, len(idx.shards))][key] = e
}

// delete removes one entry.
func (idx *Index) delete(key string) {
	delete(idx.shards[shardOf(key, len(idx.shards))], key)
}

// All iterates over every (key, entry) pair, shard by shard.
func (idx *Index) All() iter.Seq2[string, Entry] {
	return func(yield func(string, Entry) bool) {
		for _, shard := range idx.shards {
			for k, e := range shard {
				if !yield(k, e) {
					return
				}
			}
		}
	}
}

// BuildOptions configure an offline build.
type BuildOptions struct {
	// Enum are the enumeration options; MinSupport here is the
	// in-column support below which a pattern is not recorded as local
	// evidence (Algorithm 1's coverage threshold).
	Enum pattern.EnumOptions
	// Workers is the map parallelism (0 = GOMAXPROCS).
	Workers int
	// Shards is the number of index shards (0 = DefaultShards; 1
	// reproduces the former flat single-map build).
	Shards int
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
// on the shard-aware map-reduce substrate: each column maps to its local
// pattern evidence {(p, Imp_D(p))}, combined by summation straight into
// the target shard — the same dataflow as the paper's SCOPE job, with the
// reduce output adopted as the index shards with no final rehash.
func Build(cols []*corpus.Column, opt BuildOptions) *Index {
	nshards := opt.Shards
	if nshards <= 0 {
		nshards = DefaultShards()
	}
	shards := mapreduce.RunSharded(
		mapreduce.Config{Workers: opt.Workers, Progress: opt.Progress},
		nshards, cols,
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
		combineEntries,
		func(key string) int { return shardOf(key, nshards) })

	idx := &Index{
		shards:  shards,
		Enum:    opt.Enum,
		Columns: len(cols),
	}
	if e, ok := idx.Lookup(wideSentinel); ok {
		idx.SkippedWide = int(e.Cov)
		idx.delete(wideSentinel)
	}
	return idx
}

// Lookup returns the evidence for a pattern key.
func (idx *Index) Lookup(key string) (Entry, bool) {
	e, ok := idx.shards[shardOf(key, len(idx.shards))][key]
	return e, ok
}

// LookupPattern returns the evidence for a pattern.
func (idx *Index) LookupPattern(p pattern.Pattern) (Entry, bool) {
	return idx.Lookup(p.Key())
}

// Size returns the number of distinct indexed patterns.
func (idx *Index) Size() int {
	n := 0
	for _, shard := range idx.shards {
		n += len(shard)
	}
	return n
}

// String summarizes the index.
func (idx *Index) String() string {
	return fmt.Sprintf("index{patterns=%d columns=%d skipped_wide=%d tau=%d shards=%d gen=%d}",
		idx.Size(), idx.Columns, idx.SkippedWide, idx.Enum.MaxTokens, len(idx.shards), idx.Generation)
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
