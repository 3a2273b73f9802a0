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
// merged with the associative combiner. Each worker combines into a local
// map first (the "combiner" of classic Map-Reduce), and locals are
// reduced into the largest of them at the end, so combiner must be
// commutative and associative. The result is never nil.
func Run[T any, V any](cfg Config, items []T, mapper func(item T, emit func(key string, val V)), combiner func(a, b V) V) map[string]V {
	locals := make([]map[string]V, max(1, min(cfg.workers(), len(items))))
	var next, done atomic.Int64
	var wg sync.WaitGroup
	for w := range locals {
		locals[w] = make(map[string]V)
		wg.Add(1)
		go func(local map[string]V) {
			defer wg.Done()
			emit := combineInto(local, combiner)
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
		}(locals[w])
	}
	wg.Wait()

	// Reduce into the largest local: fewest rehash moves.
	best := 0
	for w := range locals {
		if len(locals[w]) > len(locals[best]) {
			best = w
		}
	}
	out := locals[best]
	emit := combineInto(out, combiner)
	for w, local := range locals {
		if w == best {
			continue
		}
		for k, v := range local {
			emit(k, v)
		}
	}
	return out
}

// combineInto returns an emit function that combines pairs into m.
func combineInto[V any](m map[string]V, combiner func(a, b V) V) func(string, V) {
	return func(key string, val V) {
		if old, ok := m[key]; ok {
			val = combiner(old, val)
		}
		m[key] = val
	}
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
