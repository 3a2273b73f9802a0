package mapreduce

import (
	"fmt"
	"sync/atomic"
	"testing"
)

func TestRunWordCount(t *testing.T) {
	items := []string{"a b", "b c", "c c a"}
	got := Run(Config{Workers: 3}, items, func(line string, emit func(string, int)) {
		start := 0
		for i := 0; i <= len(line); i++ {
			if i == len(line) || line[i] == ' ' {
				if i > start {
					emit(line[start:i], 1)
				}
				start = i + 1
			}
		}
	}, func(a, b int) int { return a + b })
	want := map[string]int{"a": 2, "b": 2, "c": 3}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("count[%q] = %d, want %d", k, got[k], v)
		}
	}
}

func TestRunSerialEqualsParallel(t *testing.T) {
	items := make([]int, 500)
	for i := range items {
		items[i] = i
	}
	mapper := func(x int, emit func(string, int)) {
		emit(fmt.Sprintf("mod%d", x%7), x)
	}
	sum := func(a, b int) int { return a + b }
	serial := Run(Config{Workers: 1}, items, mapper, sum)
	parallel := Run(Config{Workers: 8}, items, mapper, sum)
	if len(serial) != len(parallel) {
		t.Fatalf("serial %d keys, parallel %d keys", len(serial), len(parallel))
	}
	for k, v := range serial {
		if parallel[k] != v {
			t.Errorf("key %q: serial %d, parallel %d", k, v, parallel[k])
		}
	}
}

func TestRunEmpty(t *testing.T) {
	for _, workers := range []int{0, 1, 4} {
		got := Run(Config{Workers: workers}, nil, func(int, func(string, int)) {}, func(a, b int) int { return a + b })
		if got == nil || len(got) != 0 {
			t.Errorf("workers=%d: empty input should give an empty non-nil map, got %v", workers, got)
		}
	}
}

func TestRunEveryItemMappedOnce(t *testing.T) {
	items := make([]int, 1000)
	for i := range items {
		items[i] = i
	}
	var calls atomic.Int64
	got := Run(Config{Workers: 16}, items, func(x int, emit func(string, int)) {
		calls.Add(1)
		emit("n", 1)
	}, func(a, b int) int { return a + b })
	if calls.Load() != 1000 {
		t.Errorf("mapper called %d times, want 1000", calls.Load())
	}
	if got["n"] != 1000 {
		t.Errorf("combined count %d, want 1000", got["n"])
	}
}

func TestMapPreservesOrder(t *testing.T) {
	items := make([]int, 200)
	for i := range items {
		items[i] = i
	}
	got := Map(Config{Workers: 8}, items, func(x int) int { return x * x })
	for i, v := range got {
		if v != i*i {
			t.Fatalf("Map out of order at %d: %d", i, v)
		}
	}
}

func TestMapProgress(t *testing.T) {
	// Progress is invoked concurrently (no lock), so observations may
	// arrive out of order; every count in 1..100 must appear exactly
	// once and the maximum must reach the total.
	var calls, max atomic.Int64
	Map(Config{Workers: 4, Progress: func(done, total int) {
		if total != 100 {
			t.Errorf("total = %d, want 100", total)
		}
		calls.Add(1)
		for {
			m := max.Load()
			if int64(done) <= m || max.CompareAndSwap(m, int64(done)) {
				break
			}
		}
	}}, make([]int, 100), func(x int) int { return x })
	if calls.Load() != 100 {
		t.Errorf("progress called %d times, want 100", calls.Load())
	}
	if max.Load() != 100 {
		t.Errorf("max progress %d, want 100", max.Load())
	}
}

func TestRunProgressCountsEveryItem(t *testing.T) {
	items := make([]int, 400)
	var calls atomic.Int64
	Run(Config{Workers: 8, Progress: func(done, total int) {
		if done < 1 || done > 400 || total != 400 {
			t.Errorf("progress (%d, %d) out of range", done, total)
		}
		calls.Add(1)
	}}, items, func(x int, emit func(string, int)) {
		emit("n", 1)
	}, func(a, b int) int { return a + b })
	if calls.Load() != 400 {
		t.Errorf("progress called %d times, want 400", calls.Load())
	}
}

func BenchmarkRunParallel(b *testing.B) {
	items := make([]int, 1024)
	for i := range items {
		items[i] = i
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(Config{Workers: 8}, items, func(x int, emit func(string, int)) {
			for j := 0; j < 8; j++ {
				emit(fmt.Sprintf("k%d", (x+j)%64), 1)
			}
		}, func(a, b int) int { return a + b })
	}
}
