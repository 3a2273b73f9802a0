package index

import (
	"bytes"
	"slices"
	"sync"
	"testing"

	"autovalidate/internal/datagen"
)

// The index on the repository benchmark's lake: 150 enterprise tables,
// seed 1, τ = 8 (benchmark/cluster.go: buildLake).
var (
	lakeOnce sync.Once
	lakeIdx  *Index
	lakeKeys []string
	lakeFile []byte
)

func benchLake(b *testing.B) *Index {
	b.Helper()
	lakeOnce.Do(func() {
		lakeIdx = Build(datagen.Generate(datagen.Enterprise(150, 1)).Columns(), DefaultBuildOptions())
		for k := range lakeIdx.All() {
			lakeKeys = append(lakeKeys, k)
		}
		slices.Sort(lakeKeys)
		var buf bytes.Buffer
		if err := lakeIdx.Encode(&buf); err != nil {
			b.Fatal(err)
		}
		lakeFile = buf.Bytes()
	})
	return lakeIdx
}

// BenchmarkLookup is one Lookup of an indexed key, cycling through every
// key in sorted order (the benchmark's index.lookup_ns).
func BenchmarkLookup(b *testing.B) {
	idx := benchLake(b)
	for i := 0; b.Loop(); i++ {
		idx.Lookup(lakeKeys[i%len(lakeKeys)])
	}
}

// BenchmarkClone is the copy /ingest makes before folding a delta in
// (the benchmark's index.clone_ms).
func BenchmarkClone(b *testing.B) {
	idx := benchLake(b)
	b.ReportAllocs()
	for b.Loop() {
		idx.Clone()
	}
}

// BenchmarkEncode is Save and snapshot shipping without the I/O.
func BenchmarkEncode(b *testing.B) {
	idx := benchLake(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(lakeFile)))
	for b.Loop() {
		var buf bytes.Buffer
		if err := idx.Encode(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecode is Load and snapshot install without the I/O.
func BenchmarkDecode(b *testing.B) {
	benchLake(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(lakeFile)))
	for b.Loop() {
		if _, err := Decode(bytes.NewReader(lakeFile), int64(len(lakeFile))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuild is Build over a 30-table enterprise lake, seed 1: the
// offline `av index` scan (tokenise, enumerate, sum per key) on a fifth
// of the benchmark's lake, small enough to run at -benchtime 20x.
func BenchmarkBuild(b *testing.B) {
	cols := datagen.Generate(datagen.Enterprise(30, 1)).Columns()
	b.ReportAllocs()
	for b.Loop() {
		Build(cols, DefaultBuildOptions())
	}
}

// BenchmarkBuildLake is Build over the repository benchmark's whole lake
// (150 enterprise tables, seed 1, τ = 8): the build behind its set-up.
func BenchmarkBuildLake(b *testing.B) {
	cols := datagen.Generate(datagen.Enterprise(150, 1)).Columns()
	b.ReportAllocs()
	for b.Loop() {
		Build(cols, DefaultBuildOptions())
	}
}
