package index

import (
	"os"
	"path/filepath"
	"testing"
)

// fuzzSeedFiles builds small but real index artifacts — an index file
// and a delta file — and adds the two legacy goldens, so the fuzzer
// starts from structurally valid inputs and mutates checksums, length
// prefixes, and gob payloads from there.
func fuzzSeedFiles(f *testing.F) [][]byte {
	f.Helper()
	idx, delta := goldenIndex()

	dir := f.TempDir()
	var out [][]byte
	save := func(name string, write func(path string) error) {
		path := filepath.Join(dir, name)
		if err := write(path); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		out = append(out, data)
	}
	save("v3.idx", idx.Save)
	save("d.avd", func(p string) error { return SaveDelta(p, delta) })
	for _, name := range []string{"legacy_v1.idx", "legacy_v2.idx"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		out = append(out, data)
	}
	return out
}

// FuzzLoadIndex hardens the persistence loaders: for arbitrary (often
// truncated, bit-flipped, or adversarial) bytes, Load and LoadDelta must
// return an error or a well-formed result — never panic, and never spin
// allocating from a corrupt length prefix.
func FuzzLoadIndex(f *testing.F) {
	for _, data := range fuzzSeedFiles(f) {
		f.Add(data)
		if len(data) > 8 {
			f.Add(data[:len(data)/2]) // truncation seeds
			mutated := append([]byte{}, data...)
			mutated[len(mutated)-3] ^= 0x40 // payload bit-flip seed
			f.Add(mutated)
		}
	}
	f.Add([]byte{})
	f.Add([]byte("AVIDX2\n"))
	f.Add([]byte("AVIDX3\n\xff\xff\xff\xff"))
	f.Add([]byte("not an index at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return // cap per-exec cost; the formats have no size floor
		}
		path := filepath.Join(t.TempDir(), "fuzz.idx")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if idx, err := Load(path); err == nil {
			// A load that succeeds must yield a usable index: these
			// calls must not panic either.
			_ = idx.Size()
			_, _ = idx.Lookup("<digit>+")
			into := New()
			into.Enum = idx.Enum
			_, _ = Merge(into, idx)
		}
		if d, err := LoadDelta(path); err == nil {
			_ = d.Evidence.Size()
		}
	})
}
