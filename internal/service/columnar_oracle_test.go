package service

// The parent commit's byte-at-a-time column splitters, kept verbatim as
// the reference the bytes.IndexByte splitters in columnar.go are tested
// against (split tables, FuzzSplitCSVAgree, FuzzSplitNDJSONAgree): same
// values, same accept/reject, same error text.

import (
	"errors"
	"fmt"
	"unicode/utf8"
)

// oracleSplitCSV splits a single-column CSV body into one value per
// record. Quoted values follow RFC 4180: doubled quotes escape a quote,
// and quoted values may contain newlines. Unescaping rewrites the slab
// in place, so every returned value is a view into it. A comma outside
// quotes means the row has more than one field and is rejected — the
// endpoint takes a column, not a table.
func oracleSplitCSV(slab []byte) ([][]byte, error) {
	var values [][]byte
	line := 1
	i := 0
	for i < len(slab) {
		if slab[i] == '"' {
			start := i + 1
			w := start
			j := start
			closed := false
			for j < len(slab) {
				c := slab[j]
				if c == '"' {
					if j+1 < len(slab) && slab[j+1] == '"' {
						slab[w] = '"'
						w++
						j += 2
						continue
					}
					closed = true
					j++
					break
				}
				if c == '\n' {
					line++
				}
				slab[w] = c
				w++
				j++
			}
			if !closed {
				return nil, fmt.Errorf("csv line %d: unterminated quoted value", line)
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
			continue
		}
		end := i
		for end < len(slab) && slab[end] != '\n' {
			if slab[end] == ',' {
				return nil, fmt.Errorf("csv line %d: multiple fields (the endpoint takes a single column)", line)
			}
			end++
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

// oracleSplitNDJSON splits an NDJSON body: one value per line, each a
// JSON string (unescaped in place) or a bare scalar token (number,
// true/false, null — taken verbatim, covering numeric columns without a
// quoting round-trip). Blank lines are skipped; objects and arrays are
// rejected.
func oracleSplitNDJSON(slab []byte) ([][]byte, error) {
	var values [][]byte
	line := 0
	i := 0
	for i < len(slab) {
		line++
		end := i
		for end < len(slab) && slab[end] != '\n' {
			end++
		}
		lo, hi := i, end
		i = end
		if i < len(slab) {
			i++ // consume '\n'
		}
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
			v, err := oracleUnescapeJSON(slab, lo, hi)
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

// oracleUnescapeJSON decodes the JSON string in slab[lo:hi] (including
// its surrounding quotes) in place and returns the decoded view. JSON
// escapes never expand — \uXXXX is six bytes for at most a three-byte
// rune, surrogate pairs twelve for four — so writing behind the read
// cursor is safe.
func oracleUnescapeJSON(slab []byte, lo, hi int) ([]byte, error) {
	if hi-lo < 2 || slab[hi-1] != '"' {
		return nil, errors.New("unterminated JSON string")
	}
	j := lo + 1
	limit := hi - 1
	w := j
	start := j
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
