package registry

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"autovalidate/internal/domain"
)

func saveLoad(t *testing.T, r *Registry) *Registry {
	t.Helper()
	path := filepath.Join(t.TempDir(), "rules.avr")
	if err := r.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

func TestSaveLoadRoundTrip(t *testing.T) {
	r := New()
	r.PutDomain("a/code", testRule(t, "<digit>{4}"), testOptions(), 0, domain.Detection{})
	r.PutDomain("a/code", testRule(t, "<digit>+"), testOptions(), 2, domain.Detection{})
	r.PutDomain("b/locale", testRule(t, "<letter>{2}-<letter>{2}"), testOptions(), 1, domain.Detection{})
	r.MarkStale(2)

	loaded := saveLoad(t, r)
	if !reflect.DeepEqual(loaded.Names(), r.Names()) {
		t.Fatalf("names %v != %v", loaded.Names(), r.Names())
	}
	for _, name := range r.Names() {
		for v := 1; v <= r.Versions(name); v++ {
			want, _ := r.GetVersion(name, v)
			got, ok := loaded.GetVersion(name, v)
			if !ok {
				t.Fatalf("%s v%d missing after load", name, v)
			}
			if got.Rule.Pattern.String() != want.Rule.Pattern.String() ||
				got.Rule.EstimatedFPR != want.Rule.EstimatedFPR ||
				got.Rule.TrainNonConforming != want.Rule.TrainNonConforming ||
				got.IndexGeneration != want.IndexGeneration ||
				got.Stale != want.Stale ||
				got.Options != want.Options {
				t.Errorf("%s v%d round-trip mismatch:\n got %+v\nwant %+v", name, v, got, want)
			}
		}
	}
}

func TestSaveLoadEmpty(t *testing.T) {
	loaded := saveLoad(t, New())
	if loaded.Len() != 0 {
		t.Errorf("empty registry loaded with %d streams", loaded.Len())
	}
}

func TestSaveDeterministic(t *testing.T) {
	r := New()
	r.PutDomain("zz", testRule(t, "<digit>+"), testOptions(), 0, domain.Detection{})
	r.PutDomain("aa", testRule(t, "<letter>+"), testOptions(), 0, domain.Detection{})
	dir := t.TempDir()
	p1, p2 := filepath.Join(dir, "one.avr"), filepath.Join(dir, "two.avr")
	if err := r.Save(p1); err != nil {
		t.Fatal(err)
	}
	if err := r.Save(p2); err != nil {
		t.Fatal(err)
	}
	b1, _ := os.ReadFile(p1)
	b2, _ := os.ReadFile(p2)
	if string(b1) != string(b2) {
		t.Error("two saves of the same registry produced different bytes")
	}
}

// TestLoadCorruption exercises every section-framing failure mode: each
// must produce an error mentioning the file, and never a panic.
func TestLoadCorruption(t *testing.T) {
	r := New()
	r.PutDomain("a/code", testRule(t, "<digit>{4}"), testOptions(), 0, domain.Detection{})
	r.PutDomain("b/locale", testRule(t, "<letter>{2}-<letter>{2}"), testOptions(), 1, domain.Detection{})
	path := filepath.Join(t.TempDir(), "rules.avr")
	if err := r.Save(path); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		corrupt func([]byte) []byte
	}{
		{"empty file", func(b []byte) []byte { return nil }},
		{"bad magic", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[0] = 'X'
			return c
		}},
		{"truncated header", func(b []byte) []byte { return b[:len(regMagic)+2] }},
		{"truncated mid-stream", func(b []byte) []byte { return b[:len(b)/2] }},
		{"truncated tail", func(b []byte) []byte { return b[:len(b)-3] }},
		{"payload bit flip", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)-5] ^= 0x40
			return c
		}},
		{"length bomb", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			// Overwrite the first stream section's length prefix.
			off := len(regMagic) + 4 + int(uint32(b[len(regMagic)])|uint32(b[len(regMagic)+1])<<8|uint32(b[len(regMagic)+2])<<16|uint32(b[len(regMagic)+3])<<24)
			c[off], c[off+1], c[off+2], c[off+3] = 0xff, 0xff, 0xff, 0x7f
			return c
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			bad := filepath.Join(t.TempDir(), "bad.avr")
			if err := os.WriteFile(bad, c.corrupt(good), 0o644); err != nil {
				t.Fatal(err)
			}
			loaded, err := Load(bad)
			if err == nil {
				t.Fatalf("corrupt file loaded successfully: %d streams", loaded.Len())
			}
			if !strings.Contains(err.Error(), "registry:") {
				t.Errorf("error %q should be package-attributed", err)
			}
		})
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "absent.avr")); err == nil {
		t.Error("loading a missing file should error")
	}
}

// TestAtomicSaveKeepsOldFileOnFailure verifies the temp+rename
// discipline: saving over an existing file leaves no temp siblings.
func TestAtomicSaveNoTempLeftovers(t *testing.T) {
	r := New()
	r.PutDomain("s", testRule(t, "<digit>+"), testOptions(), 0, domain.Detection{})
	dir := t.TempDir()
	path := filepath.Join(dir, "rules.avr")
	for i := 0; i < 3; i++ {
		if err := r.Save(path); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Errorf("directory holds %v, want only rules.avr", names)
	}
}
