// Package frame owns the repo's one durable byte layout and its one
// save discipline. Every persisted or replicated artifact — the index
// and its deltas (AVIDX3), the stream registry (AVREG1), journal
// segments (AVJRN1) and the cluster's wire artifacts — is
//
//	magic | uint32 header length | header          (header optional)
//	per section: uint32 payload length | uint32 CRC-32C | payload
//
// with little-endian integers and the Castagnoli polynomial. What goes
// in a header or a payload (gob, JSON) stays with the artifact's owner;
// this package only guarantees that truncation, bit rot and implausible
// lengths come back as errors naming the section, never as a panic or
// an allocation sized by corrupt bytes.
package frame

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SectionOverhead is what a section costs beyond its payload: the
// length and checksum prefix.
const SectionOverhead = 8

// Write writes a whole artifact — magic, header, one section per
// payload — through one buffer. A nil header writes none: a journal
// segment is its magic followed by appended sections.
func Write(w io.Writer, magic string, header []byte, payloads ...[]byte) error {
	// A bufio.Writer's first error sticks and comes back from Flush, so
	// the writes in between need no checks of their own.
	bw := bufio.NewWriter(w)
	_, _ = bw.WriteString(magic)
	if header != nil {
		if err := framable("header", len(header)); err != nil {
			return err
		}
		_, _ = bw.Write(binary.LittleEndian.AppendUint32(nil, uint32(len(header))))
		_, _ = bw.Write(header)
	}
	for i, payload := range payloads {
		if err := WriteSection(bw, payload); err != nil {
			return fmt.Errorf("frame: section %d: %w", i, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("frame: writing %q artifact: %w", magic, err)
	}
	return nil
}

// framable rejects what the uint32 length prefix cannot describe — here
// at the writer, not as a silently wrapped length the reader would
// misparse — and the empty element every reader refuses.
func framable(what string, n int) error {
	if n == 0 || uint64(n) > math.MaxUint32 {
		return fmt.Errorf("frame: a %s of %d bytes cannot be framed", what, n)
	}
	return nil
}

// WriteSection appends one checksummed section.
func WriteSection(w io.Writer, payload []byte) error {
	if err := framable("section", len(payload)); err != nil {
		return err
	}
	var prefix [SectionOverhead]byte
	binary.LittleEndian.PutUint32(prefix[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(prefix[4:], crc32.Checksum(payload, castagnoli))
	if _, err := w.Write(prefix[:]); err != nil {
		return fmt.Errorf("frame: writing section prefix: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("frame: writing section payload: %w", err)
	}
	return nil
}

// Reader consumes framed elements from a stream and remembers how far
// the stream was whole.
type Reader struct {
	r        io.Reader
	off      int64
	sections int
}

// ReadMagic consumes the magic that must open the stream.
func ReadMagic(r io.Reader, magic string) (*Reader, error) {
	got := make([]byte, len(magic))
	if _, err := io.ReadFull(r, got); err != nil {
		return nil, fmt.Errorf("frame: short magic (want %q): %w", magic, err)
	}
	if !bytes.Equal(got, []byte(magic)) {
		return nil, fmt.Errorf("frame: bad magic %q (want %q)", got, magic)
	}
	return &Reader{r: r, off: int64(len(magic))}, nil
}

// ReadHeader returns the length-prefixed header; max bounds its
// allocation.
func (fr *Reader) ReadHeader(max int64) ([]byte, error) {
	var prefix [4]byte
	if _, err := io.ReadFull(fr.r, prefix[:]); err != nil {
		return nil, fmt.Errorf("frame: missing header length: %w", err)
	}
	n := int64(binary.LittleEndian.Uint32(prefix[:]))
	if n == 0 || n > max {
		return nil, fmt.Errorf("frame: implausible header length %d (cap %d)", n, max)
	}
	header := make([]byte, n)
	if _, err := io.ReadFull(fr.r, header); err != nil {
		return nil, fmt.Errorf("frame: truncated header: %w", err)
	}
	fr.off += 4 + n
	return header, nil
}

// ReadSection returns the next section's payload, checksum verified;
// max bounds its allocation. A stream that ends cleanly before the
// section wraps io.EOF; one that ends inside it, io.ErrUnexpectedEOF.
func (fr *Reader) ReadSection(max int64) ([]byte, error) {
	var prefix [SectionOverhead]byte
	if _, err := io.ReadFull(fr.r, prefix[:]); err != nil {
		return nil, fmt.Errorf("frame: section %d: truncated at length and checksum: %w", fr.sections, err)
	}
	n := int64(binary.LittleEndian.Uint32(prefix[0:]))
	sum := binary.LittleEndian.Uint32(prefix[4:])
	if n == 0 || n > max {
		return nil, fmt.Errorf("frame: section %d: implausible length %d (cap %d)", fr.sections, n, max)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		return nil, fmt.Errorf("frame: section %d: truncated payload: %w", fr.sections, err)
	}
	if got := crc32.Checksum(payload, castagnoli); got != sum {
		return nil, fmt.Errorf("frame: section %d: checksum mismatch (%08x != %08x)", fr.sections, got, sum)
	}
	fr.off += SectionOverhead + n
	fr.sections++
	return payload, nil
}

// ReadEOF errors unless the stream ends here. Headers carry no
// checksum, so bytes after the sections a header declared are how a
// damaged count shows.
func (fr *Reader) ReadEOF() error {
	if _, err := io.ReadFull(fr.r, make([]byte, 1)); err == nil {
		return fmt.Errorf("frame: trailing bytes after %d sections", fr.sections)
	} else if err != io.EOF {
		return fmt.Errorf("frame: after %d sections: %w", fr.sections, err)
	}
	return nil
}

// Offset is the stream position just past the last whole,
// checksum-valid element read — after a failed ReadSection, the point
// to cut a torn tail back to.
func (fr *Reader) Offset() int64 { return fr.off }
