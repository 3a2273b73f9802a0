package service

// Columnar request bodies. Alongside the JSON envelope, POST /validate
// and POST /streams/{name}/check accept a raw column: `text/csv` (one
// value per line, RFC 4180 quoting) or NDJSON (`application/x-ndjson`,
// one JSON string per line). The body is read once into a single slab
// and split into [][]byte views — quoted/escaped values are unescaped
// in place, which only ever shrinks — so a million-value batch is
// decoded without materializing a []string or copying any value, and
// validation runs through the rule's compiled program via
// Rule.ValidateBatch. Slab and view index come from a pool and go back
// to it once the response is written (see column), so a steady stream
// of batches is decoded without allocating either.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"sync"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"
)

// columnarKind classifies a request Content-Type.
type columnarKind int

const (
	colNone columnarKind = iota
	colCSV
	colNDJSON
)

func columnarKindOf(contentType string) columnarKind {
	mt, _, err := mime.ParseMediaType(contentType)
	if err != nil {
		return colNone
	}
	switch mt {
	case "text/csv":
		return colCSV
	case "application/x-ndjson", "application/ndjson", "application/jsonlines":
		return colNDJSON
	default:
		return colNone
	}
}

// BodyRetain is the retention ceiling of the request-body pools (the
// service's decoded columns, the gateway's forward buffers): a buffer
// that grew past it is dropped after its request instead of pooled, and
// only a Content-Length under it is reserved before the bytes arrive —
// so neither a huge batch nor a promised-but-unsent one pins memory
// beyond the request that brought it.
const BodyRetain = 1 << 20

// ReadBody reads body to EOF into buf's storage and returns the filled
// slice (also on error, so a pooled buffer finds its way back). body
// must already be bounded — handlers pass the http.MaxBytesReader.
// declared is the request's Content-Length (-1 when unknown): up to
// BodyRetain it sizes the buffer in one allocation; a larger promise
// reserves nothing, and the buffer grows with the bytes that arrive.
func ReadBody(body io.Reader, buf []byte, declared int64) ([]byte, error) {
	buf = buf[:0]
	// One spare byte lets the Read that reports EOF land in a buffer
	// that is exactly full; an unknown or oversized length starts small
	// and grows.
	want := declared + 1
	if declared < 0 || want > BodyRetain {
		want = bytes.MinRead
	}
	if int64(cap(buf)) < want {
		buf = make([]byte, 0, want)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return buf, err
		}
	}
}

// column is one decoded columnar body: the slab the request was read
// into and the byte views the splitter cut out of it. Both are pooled,
// so the views are valid only until release — whatever outlives the
// response (report examples, attribution samples, re-inference training
// values, journal events) is copied to strings by the code that keeps it.
type column struct {
	slab   []byte   // the body; every value is a view into it
	split  [][]byte // one view per record, header row included
	values [][]byte // split minus the header row: what the handler checks
}

var columnPool = sync.Pool{New: func() any { return new(column) }}

// release returns the column to the pool once the response is written,
// unless the slab or the view index (three words a view) outgrew
// BodyRetain.
func (c *column) release() {
	if cap(c.slab) > BodyRetain || cap(c.split)*int(unsafe.Sizeof(c.slab)) > BodyRetain {
		return
	}
	columnPool.Put(c)
}

var newline = []byte{'\n'}

// decodeColumnar reads and splits a columnar body, writing the HTTP
// error itself on failure (mirroring decodeJSON). The caller releases
// the returned column after writing its response.
func decodeColumnar(w http.ResponseWriter, r *http.Request, kind columnarKind, limit int64, header bool) (*column, bool) {
	if r.ContentLength > limit {
		writeTooLarge(w, r, limit)
		return nil, false
	}
	c := columnPool.Get().(*column)
	ok := false
	defer func() {
		if !ok {
			c.release()
		}
	}()
	var err error
	c.slab, err = ReadBody(http.MaxBytesReader(w, r.Body, limit), c.slab, r.ContentLength)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeTooLarge(w, r, tooBig.Limit)
			return nil, false
		}
		writeError(w, r, http.StatusBadRequest, "reading request body: "+err.Error())
		return nil, false
	}
	// Every record but the last ends in a newline, so this capacity is
	// never outgrown.
	if n := bytes.Count(c.slab, newline) + 1; cap(c.split) < n {
		c.split = make([][]byte, 0, n)
	}
	var values [][]byte
	switch kind {
	case colCSV:
		values, err = splitCSVColumn(c.slab, c.split[:0])
	default:
		values, err = splitNDJSONColumn(c.slab, c.split[:0])
	}
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err.Error())
		return nil, false
	}
	c.split, c.values = values, values
	if header && len(values) > 0 {
		c.values = values[1:]
	}
	if len(c.values) == 0 {
		writeError(w, r, http.StatusBadRequest, "columnar body contains no values")
		return nil, false
	}
	ok = true
	return c, true
}

// indexFrom returns the offset of the first c in b at or after from, or
// len(b) when there is none.
func indexFrom(b []byte, from int, c byte) int {
	if k := bytes.IndexByte(b[from:], c); k >= 0 {
		return from + k
	}
	return len(b)
}

// splitCSVColumn splits a single-column CSV body into one value per
// record, appended to values. Quoted values follow RFC 4180: doubled
// quotes escape a quote, and quoted values may contain newlines.
// Unescaping rewrites the slab in place, so every returned value is a
// view into it. A comma outside quotes means the row has more than one
// field and is rejected — the endpoint takes a column, not a table.
func splitCSVColumn(slab []byte, values [][]byte) ([][]byte, error) {
	line := 1
	i := 0
	// comma is the first comma at or after i: the slab is searched for
	// commas once in total, not once per record.
	comma := indexFrom(slab, 0, ',')
	for i < len(slab) {
		if slab[i] == '"' {
			start := i + 1
			w := start
			j := start
			for {
				q := bytes.IndexByte(slab[j:], '"')
				if q < 0 {
					line += bytes.Count(slab[j:], newline)
					return nil, fmt.Errorf("csv line %d: unterminated quoted value", line)
				}
				line += bytes.Count(slab[j:j+q], newline)
				if w != j {
					copy(slab[w:], slab[j:j+q])
				}
				w += q
				j += q + 1
				if j < len(slab) && slab[j] == '"' {
					slab[w] = '"'
					w++
					j++
					continue
				}
				break
			}
			values = append(values, slab[start:w])
			// Only a record boundary may follow the closing quote.
			if j < len(slab) && slab[j] == '\r' {
				j++
			}
			switch {
			case j >= len(slab):
			case slab[j] == '\n':
				j++
				line++
			case slab[j] == ',':
				return nil, fmt.Errorf("csv line %d: multiple fields (the endpoint takes a single column)", line)
			default:
				return nil, fmt.Errorf("csv line %d: unexpected %q after closing quote", line, slab[j])
			}
			i = j
			if comma < i {
				comma = indexFrom(slab, i, ',')
			}
			continue
		}
		end := indexFrom(slab, i, '\n')
		if comma < end {
			return nil, fmt.Errorf("csv line %d: multiple fields (the endpoint takes a single column)", line)
		}
		v := slab[i:end]
		if len(v) > 0 && v[len(v)-1] == '\r' {
			v = v[:len(v)-1]
		}
		values = append(values, v)
		if end < len(slab) {
			end++ // consume '\n'
			line++
		}
		i = end
	}
	return values, nil
}

// splitNDJSONColumn splits an NDJSON body, appending to values: one
// value per line, each a JSON string (unescaped in place) or a bare
// scalar token (number, true/false, null — taken verbatim, covering
// numeric columns without a quoting round-trip). Blank lines are
// skipped; objects and arrays are rejected.
func splitNDJSONColumn(slab []byte, values [][]byte) ([][]byte, error) {
	line := 0
	i := 0
	for i < len(slab) {
		line++
		lo, hi := i, indexFrom(slab, i, '\n')
		i = hi + 1 // consume '\n'
		for lo < hi && (slab[lo] == ' ' || slab[lo] == '\t' || slab[lo] == '\r') {
			lo++
		}
		for hi > lo && (slab[hi-1] == ' ' || slab[hi-1] == '\t' || slab[hi-1] == '\r') {
			hi--
		}
		if lo == hi {
			continue
		}
		switch slab[lo] {
		case '"':
			v, err := unescapeJSONString(slab, lo, hi)
			if err != nil {
				return nil, fmt.Errorf("ndjson line %d: %w", line, err)
			}
			values = append(values, v)
		case '{', '[':
			return nil, fmt.Errorf("ndjson line %d: values must be JSON strings or scalars, not objects/arrays", line)
		default:
			values = append(values, slab[lo:hi])
		}
	}
	return values, nil
}

// unescapeJSONString decodes the JSON string in slab[lo:hi] (including
// its surrounding quotes) and returns the decoded view: the string's
// own bytes when it has no escapes, otherwise rewritten in place from
// the first backslash on. JSON escapes never expand — \uXXXX is six
// bytes for at most a three-byte rune, surrogate pairs twelve for four —
// so writing behind the read cursor is safe.
func unescapeJSONString(slab []byte, lo, hi int) ([]byte, error) {
	if hi-lo < 2 || slab[hi-1] != '"' {
		return nil, errors.New("unterminated JSON string")
	}
	start, limit := lo+1, hi-1
	esc := bytes.IndexByte(slab[start:limit], '\\')
	if q := bytes.IndexByte(slab[start:limit], '"'); q >= 0 && (esc < 0 || q < esc) {
		return nil, errors.New("unexpected data after JSON string")
	}
	if esc < 0 {
		return slab[start:limit], nil
	}
	j := start + esc
	w := j
	for j < limit {
		c := slab[j]
		if c == '"' {
			return nil, errors.New("unexpected data after JSON string")
		}
		if c != '\\' {
			slab[w] = c
			w++
			j++
			continue
		}
		j++
		if j >= limit {
			return nil, errors.New("truncated escape sequence")
		}
		switch slab[j] {
		case '"', '\\', '/':
			slab[w] = slab[j]
			w++
			j++
		case 'b':
			slab[w] = '\b'
			w++
			j++
		case 'f':
			slab[w] = '\f'
			w++
			j++
		case 'n':
			slab[w] = '\n'
			w++
			j++
		case 'r':
			slab[w] = '\r'
			w++
			j++
		case 't':
			slab[w] = '\t'
			w++
			j++
		case 'u':
			r, n, err := decodeHexRune(slab[j-1 : limit])
			if err != nil {
				return nil, err
			}
			j += n - 1
			w += utf8.EncodeRune(slab[w:], r)
		default:
			return nil, fmt.Errorf("bad escape \\%c", slab[j])
		}
	}
	return slab[start:w], nil
}

// decodeHexRune decodes one \uXXXX escape (b starts at the backslash),
// combining UTF-16 surrogate pairs, and returns the rune and the number
// of input bytes consumed.
func decodeHexRune(b []byte) (rune, int, error) {
	hex4 := func(b []byte) (rune, bool) {
		var r rune
		for _, c := range b[:4] {
			r <<= 4
			switch {
			case c >= '0' && c <= '9':
				r |= rune(c - '0')
			case c >= 'a' && c <= 'f':
				r |= rune(c-'a') + 10
			case c >= 'A' && c <= 'F':
				r |= rune(c-'A') + 10
			default:
				return 0, false
			}
		}
		return r, true
	}
	if len(b) < 6 {
		return 0, 0, errors.New("truncated \\u escape")
	}
	r, ok := hex4(b[2:])
	if !ok {
		return 0, 0, errors.New("bad \\u escape")
	}
	if utf16.IsSurrogate(r) {
		if len(b) >= 12 && b[6] == '\\' && b[7] == 'u' {
			if r2, ok := hex4(b[8:]); ok {
				if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
					return dec, 12, nil
				}
			}
		}
		return utf8.RuneError, 6, nil
	}
	return r, 6, nil
}
