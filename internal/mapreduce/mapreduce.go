// Package mapreduce is a small goroutine-parallel map/combine/reduce
// runner. It stands in for the SCOPE Map-Reduce system the paper uses for
// its offline indexing job (§2.4, §5): the same dataflow — partition the
// corpus, map each column to (pattern, evidence) pairs, combine locally,
// reduce globally — at laptop scale.
package mapreduce

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Config controls a job run.
type Config struct {
	// Workers is the mapper parallelism; 0 means GOMAXPROCS.
	Workers int
	// Progress, if non-nil, is called after each item is mapped with
	// the number of items completed so far. It must be fast and safe
	// for concurrent use: workers invoke it directly, without any
	// lock, so cheap items do not serialize on a progress mutex.
	Progress func(done, total int)
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Run executes a map/combine/reduce job over items. The mapper emits
// (key, value) pairs via the emit callback; values for equal keys are
// merged with the associative combiner. A key is the mapper's scratch,
// read only during the call. Each worker combines into a local table
// first (the "combiner" of classic Map-Reduce): it looks each key up as
// bytes and copies it into a string only when it is new to that worker.
// The locals are then reduced into one map, in worker order, so combiner
// must be commutative and associative; with one worker the values for a
// key are combined in the order they were emitted. The result is never
// nil.
func Run[T any, V any](cfg Config, items []T, mapper func(item T, emit func(key []byte, val V)), combiner func(a, b V) V) map[string]V {
	locals := make([]local[V], max(1, min(cfg.workers(), len(items))))
	var next, done atomic.Int64
	var wg sync.WaitGroup
	for w := range locals {
		wg.Add(1)
		go func(l *local[V]) {
			defer wg.Done()
			l.slot = make(map[string]int)
			emit := func(key []byte, val V) { l.combine(key, val, combiner) }
			for {
				i := int(next.Add(1)) - 1
				if i >= len(items) {
					return
				}
				mapper(items[i], emit)
				if cfg.Progress != nil {
					cfg.Progress(int(done.Add(1)), len(items))
				}
			}
		}(&locals[w])
	}
	wg.Wait()

	n := 0
	for _, l := range locals {
		n = max(n, len(l.vals))
	}
	out := make(map[string]V, n)
	for _, l := range locals {
		for k, s := range l.slot {
			val := l.vals[s]
			if old, ok := out[k]; ok {
				val = combiner(old, val)
			}
			out[k] = val
		}
	}
	return out
}

// local is one worker's combined pairs: slot maps each key to its value
// in vals.
type local[V any] struct {
	slot map[string]int
	vals []V
}

// combine folds the pair (key, val) into l.
func (l *local[V]) combine(key []byte, val V, combiner func(a, b V) V) {
	if s, ok := l.slot[string(key)]; ok {
		l.vals[s] = combiner(l.vals[s], val)
		return
	}
	l.slot[string(key)] = len(l.vals)
	l.vals = append(l.vals, val)
}

// Map applies fn to every item in parallel and returns the results in
// input order. It is the "map-only" stage used for per-column work that
// needs no key aggregation (e.g. evaluating a benchmark).
func Map[T any, R any](cfg Config, items []T, fn func(item T) R) []R {
	nw := cfg.workers()
	if nw > len(items) {
		nw = len(items)
	}
	out := make([]R, len(items))
	if nw <= 1 {
		for i, it := range items {
			out[i] = fn(it)
			if cfg.Progress != nil {
				cfg.Progress(i+1, len(items))
			}
		}
		return out
	}
	var next, done atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(items) {
					return
				}
				out[i] = fn(items[i])
				if cfg.Progress != nil {
					cfg.Progress(int(done.Add(1)), len(items))
				}
			}
		}()
	}
	wg.Wait()
	return out
}
