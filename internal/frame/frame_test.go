package frame_test

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"autovalidate/internal/frame"
	"autovalidate/internal/frame/frametest"
)

const testMagic = "AVTEST1\n"

// testArtifact frames a header and three sections.
func testArtifact(t testing.TB) ([]byte, [][]byte) {
	t.Helper()
	sections := [][]byte{[]byte("first"), bytes.Repeat([]byte{0xA5}, 300), []byte("x")}
	var buf bytes.Buffer
	if err := frame.Write(&buf, testMagic, []byte(`{"n":3}`), sections...); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), sections
}

// readArtifact reads back what testArtifact wrote: the header, every
// section up to a clean end of stream, and how far the stream was whole.
func readArtifact(data []byte) (header []byte, sections [][]byte, off int64, err error) {
	fr, err := frame.ReadMagic(bytes.NewReader(data), testMagic)
	if err != nil {
		return nil, nil, 0, err
	}
	if header, err = fr.ReadHeader(1 << 10); err != nil {
		return nil, nil, fr.Offset(), err
	}
	for {
		payload, err := fr.ReadSection(1 << 10)
		if errors.Is(err, io.EOF) {
			return header, sections, fr.Offset(), nil
		}
		if err != nil {
			return header, sections, fr.Offset(), err
		}
		sections = append(sections, payload)
	}
}

func TestRoundTrip(t *testing.T) {
	data, want := testArtifact(t)
	header, got, off, err := readArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	if string(header) != `{"n":3}` || len(got) != len(want) || off != int64(len(data)) {
		t.Fatalf("read header %q, %d sections, offset %d; want 3 sections ending at %d", header, len(got), off, len(data))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("section %d differs", i)
		}
	}
	fr, err := frame.ReadMagic(bytes.NewReader(data), testMagic)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fr.ReadHeader(3); err == nil {
		t.Error("a header over its bound was read")
	}
	if err := fr.ReadEOF(); err == nil {
		t.Error("ReadEOF accepted a stream with sections left")
	}
}

// TestCorruptionNeverYieldsOtherSections: whatever is damaged, the
// reader returns an error or a prefix of the sections that were
// written. Only a flip inside the header body — which carries no
// checksum; its owner validates it — can pass as a whole artifact.
func TestCorruptionNeverYieldsOtherSections(t *testing.T) {
	data, want := testArtifact(t)
	headerBody := data[len(testMagic)+4 : len(testMagic)+4+len(`{"n":3}`)]
	frametest.Corrupt(t, data, func(damage string, bad []byte) {
		_, got, _, err := readArtifact(bad)
		inHeader := len(bad) == len(data) && !bytes.Contains(bad, headerBody)
		if err == nil && len(got) == len(want) && !inHeader {
			t.Errorf("%s: read as a whole artifact", damage)
		}
		if len(got) > len(want) {
			t.Fatalf("%s: read %d sections of %d", damage, len(got), len(want))
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("%s: section %d came back different", damage, i)
			}
		}
	})
}

// TestOffsetIsTheTornTailCut: in a headerless artifact (a journal
// segment) the offset after a failed read is always a section boundary
// of the original with every byte before it intact.
func TestOffsetIsTheTornTailCut(t *testing.T) {
	sections := [][]byte{[]byte("one"), []byte("second"), []byte("3")}
	var buf bytes.Buffer
	if err := frame.Write(&buf, testMagic, nil, sections...); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	boundaries := map[int64]bool{0: true}
	end := int64(len(testMagic))
	boundaries[end] = true
	for _, s := range sections {
		end += frame.SectionOverhead + int64(len(s))
		boundaries[end] = true
	}
	frametest.Corrupt(t, data, func(damage string, bad []byte) {
		var off int64
		if fr, err := frame.ReadMagic(bytes.NewReader(bad), testMagic); err == nil {
			for err == nil {
				_, err = fr.ReadSection(1 << 10)
			}
			off = fr.Offset()
		}
		if !boundaries[off] || off > int64(len(bad)) || !bytes.Equal(bad[:off], data[:off]) {
			t.Errorf("%s: offset %d is not an intact section boundary", damage, off)
		}
		if off == int64(len(data)) {
			t.Errorf("%s: read as a whole segment", damage)
		}
	})
}

func TestWriteRejectsUnframeable(t *testing.T) {
	if err := frame.WriteSection(io.Discard, nil); err == nil {
		t.Error("an empty section was framed; readers reject a zero length")
	}
	if err := frame.Write(io.Discard, testMagic, []byte{}); err == nil {
		t.Error("an empty header was framed")
	}
}

// failAfter errors once more than k bytes have been written through it.
type failAfter struct {
	w io.Writer
	k int
}

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.k {
		n, _ := f.w.Write(p[:f.k])
		f.k = 0
		return n, errors.New("disk full")
	}
	f.k -= len(p)
	return f.w.Write(p)
}

// TestSaveAtomic: a save that fails after any number of bytes leaves
// the old file byte-identical and no temp sibling; so does a successful
// one, which leaves the new bytes.
func TestSaveAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "artifact")
	old := []byte("the previous good file\n")
	fresh := bytes.Repeat([]byte("new "), 2000) // larger than SaveAtomic's buffer
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	onlyArtifact := func(when string) {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || entries[0].Name() != "artifact" {
			t.Fatalf("%s: directory holds %v", when, entries)
		}
	}
	for k := 0; k < len(fresh); k += 97 {
		err := frame.SaveAtomic(path, func(w io.Writer) error {
			_, err := (&failAfter{w: w, k: k}).Write(fresh)
			return err
		})
		if err == nil || !strings.Contains(err.Error(), path) {
			t.Fatalf("k=%d: error %v should name the path", k, err)
		}
		if got, _ := os.ReadFile(path); !bytes.Equal(got, old) {
			t.Fatalf("k=%d: a failed save changed the file", k)
		}
		onlyArtifact("after a failed save")
	}
	if err := frame.SaveAtomic(path, func(w io.Writer) error { _, err := w.Write(fresh); return err }); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, fresh) {
		t.Fatal("a successful save did not replace the file")
	}
	onlyArtifact("after a successful save")
	if err := frame.SaveAtomic(filepath.Join(dir, "missing", "x"), func(io.Writer) error { return nil }); err == nil {
		t.Error("a save into a missing directory succeeded")
	}
}

// FuzzFrameRead: arbitrary bytes are an error or whole sections, never
// a panic and never an allocation beyond the caller's bound.
func FuzzFrameRead(f *testing.F) {
	data, _ := testArtifact(f)
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Add([]byte(testMagic))
	f.Add([]byte(testMagic + "\xff\xff\xff\xff"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, sections, off, _ := readArtifact(data)
		if off > int64(len(data)) {
			t.Fatalf("offset %d past the %d bytes read", off, len(data))
		}
		for _, s := range sections {
			if len(s) == 0 || len(s) > 1<<10 {
				t.Fatalf("section of %d bytes escaped its bound", len(s))
			}
		}
	})
}
