package registry

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"autovalidate/internal/domain"
	"autovalidate/internal/frame/frametest"
)

// goldenRegistry rebuilds the registry testdata/golden.avr was saved
// from by the last commit that framed AVREG1 by hand: two versions of
// one stream, one stream with a detected domain, one marked stale.
func goldenRegistry(t *testing.T) *Registry {
	t.Helper()
	r := New()
	r.PutDomain("a/code", testRule(t, "<digit>{4}"), testOptions(), 0, domain.Detection{})
	r.PutDomain("a/code", testRule(t, "<digit>+"), testOptions(), 2, domain.Detection{})
	r.PutDomain("cards", testRule(t, "<digit>{16}"), testOptions(), 2, domain.Detection{
		Name: "luhn", Family: "checksum", Confidence: 0.984, Sampled: 256, Valid: 252,
	})
	r.PutDomain("b/locale", testRule(t, "<letter>{2}-<letter>{2}"), testOptions(), 1, domain.Detection{})
	r.MarkStale(2)
	return r
}

// TestGoldenRegistry: the parent's AVREG1 bytes load to the registry
// they were saved from, and — Encode being deterministic — the current
// code writes the very same bytes.
func TestGoldenRegistry(t *testing.T) {
	path := filepath.Join("testdata", "golden.avr")
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := goldenRegistry(t)
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Names(), want.Names()) {
		t.Fatalf("names %v, want %v", got.Names(), want.Names())
	}
	for _, name := range want.Names() {
		if got.Versions(name) != want.Versions(name) {
			t.Fatalf("%s: %d versions, want %d", name, got.Versions(name), want.Versions(name))
		}
		for v := 1; v <= want.Versions(name); v++ {
			w, _ := want.GetVersion(name, v)
			g, _ := got.GetVersion(name, v)
			if g.Rule.Pattern.String() != w.Rule.Pattern.String() || g.Options != w.Options ||
				g.IndexGeneration != w.IndexGeneration || g.Stale != w.Stale ||
				!reflect.DeepEqual(g.Domain, w.Domain) {
				t.Errorf("%s v%d:\n got %+v\nwant %+v", name, v, g, w)
			}
		}
	}
	var buf bytes.Buffer
	if err := want.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Errorf("re-encoded registry differs from the golden bytes (%d vs %d bytes)", buf.Len(), len(golden))
	}
}

// TestCorruptionTable runs the golden registry through the shared
// corruption table: every truncation and every flipped byte — header
// included, since a damaged stream count no longer matches the sections
// that follow — is an error, never a smaller registry and never a panic.
func TestCorruptionTable(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "golden.avr"))
	if err != nil {
		t.Fatal(err)
	}
	frametest.Corrupt(t, golden, func(damage string, bad []byte) {
		if got, err := Decode(bytes.NewReader(bad)); err == nil {
			t.Errorf("%s: loaded as a registry of %d streams", damage, got.Len())
		}
	})
}
