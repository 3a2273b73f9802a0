package service

// The column splitters against the standard library and against the
// parent commit's loops (columnar_oracle_test.go).
//
// Against the oracle the contract is equality: same values, same
// accept/reject, same error text, for every input. Against encoding/csv
// and encoding/json it is "same values wherever both accept", with the
// places the endpoint differs on purpose pinned by name in
// TestSplittersDifferFromStdlibOnPurpose and accounted for — not
// skipped — in the comparisons below.

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"
)

// splitSeeds are the committed corpus of both fuzz targets and the
// table the oracle parity test walks.
var splitSeeds = []string{
	"a\nb\nc\n",
	"a\r\nb\r\n",                           // \r\n records
	"a\nb",                                 // no trailing newline
	"\"two\nlines\"\n\"say \"\"hi\"\"\"\n", // quoted newline, doubled quotes
	"\"a,b\"\nplain\n\"c\"\r\n",            // quoted comma, mixed records
	"a\n\nb\n\n",                           // blank lines
	"ab\"c\nd\n",                           // interior bare quote
	"a,b\n",                                // multi-field row
	"\"a\",b\n",                            // multi-field row behind a quote
	"\"abc\n",                              // unterminated quote
	"\"a\"x\n",                             // junk after the closing quote
	"\"a\nb\"\n\"c,d\"\ne,f\n",             // a legal comma, a quoted newline, then the stray comma
	"\"plain\"\n\"no escapes\"\n",          // strings with no escapes
	`"\tfirst"` + "\n" + `"last\n"` + "\n", // escape at the first and the last byte
	`"\ud83d\ude00"` + "\n" + `"\u00e9A"` + "\n", // surrogate pair, BMP escape
	`"\ud83d"` + "\n" + `"\ude00x"` + "\n",       // unpaired surrogates
	`"a"` + "\r\n" + `  "b"  ` + "\n\n" + `"c"`,  // \r\n, padding, blank line, no trailing newline
	"123\n-4.5e3\ntrue\nnull\n",                  // bare scalars
	`"in"ner"` + "\n",                            // interior bare quote in a JSON string
	`"\q"` + "\n",                                // bad escape
	`"abc\"` + "\n",                              // escape swallows the closing quote
	`"\u12"` + "\n",                              // truncated \u escape
	"{\"a\":1}\n",                                // object
	"[1]\n",                                      // array
	"\"abc\n",                                    // unterminated string
	"",
}

func cloneViews(values [][]byte) []string {
	out := make([]string, len(values))
	for i, v := range values {
		out[i] = string(v)
	}
	return out
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// agreeWithOracle runs a splitter and the parent's loop over private
// copies of body and fails on any difference in values or error text.
// The splitter is handed a non-empty slice to append to, as the pooled
// column hands it one.
func agreeWithOracle(t *testing.T, body []byte,
	split func([]byte, [][]byte) ([][]byte, error),
	oracle func([]byte) ([][]byte, error)) ([]string, error) {
	t.Helper()
	got, err := split(bytes.Clone(body), make([][]byte, 0, 4))
	want, wantErr := oracle(bytes.Clone(body))
	if errText(err) != errText(wantErr) {
		t.Fatalf("body %q: error %q, parent's loop says %q", body, errText(err), errText(wantErr))
	}
	values := cloneViews(got)
	if err == nil && !reflect.DeepEqual(values, cloneViews(want)) {
		t.Fatalf("body %q: values %q, parent's loop says %q", body, values, cloneViews(want))
	}
	return values, err
}

// TestSplittersAgreeWithOracleOnSeeds is the accept/reject parity the
// HTTP surface rests on: every seed, through both splitters, gives the
// parent's values or the parent's error string.
func TestSplittersAgreeWithOracleOnSeeds(t *testing.T) {
	for _, seed := range splitSeeds {
		agreeWithOracle(t, []byte(seed), splitCSVColumn, oracleSplitCSV)
		agreeWithOracle(t, []byte(seed), splitNDJSONColumn, oracleSplitNDJSON)
	}
}

// stdlibCSV reads body as encoding/csv sees a one-column file.
func stdlibCSV(body []byte) ([]string, error) {
	r := csv.NewReader(bytes.NewReader(body))
	r.FieldsPerRecord = 1
	records, err := r.ReadAll()
	if err != nil {
		return nil, err
	}
	out := make([]string, len(records))
	for i, rec := range records {
		out[i] = rec[0]
	}
	return out, nil
}

func nonEmpty(values []string) []string {
	var out []string
	for _, v := range values {
		if v != "" {
			out = append(out, v)
		}
	}
	return out
}

// checkCSVAgainstStdlib compares one body's split with encoding/csv's.
func checkCSVAgainstStdlib(t *testing.T, body []byte) {
	t.Helper()
	ours, err := agreeWithOracle(t, body, splitCSVColumn, oracleSplitCSV)
	std, stdErr := stdlibCSV(body)
	switch {
	case err != nil && stdErr == nil:
		t.Fatalf("body %q: rejected (%v) but encoding/csv reads %q", body, err, std)
	case err != nil:
		// Both reject; multi-field rows are the endpoint's own rule and
		// encoding/csv with FieldsPerRecord = 1 refuses them too.
	case stdErr != nil:
		// The one thing the endpoint takes and encoding/csv does not: a
		// quote inside a value that did not start with one (difference
		// "bare quote").
		if !errors.Is(stdErr, csv.ErrBareQuote) {
			t.Fatalf("body %q: accepted as %q but encoding/csv says %v", body, ours, stdErr)
		}
	default:
		// Differences "empty lines" and "quoted \r\n": encoding/csv
		// drops empty lines and turns \r\n inside quotes into \n. What
		// is left must match in order, and every empty value encoding/csv
		// kept (a quoted "") the endpoint kept too.
		for i, v := range ours {
			ours[i] = strings.ReplaceAll(v, "\r\n", "\n")
		}
		if a, b := nonEmpty(ours), nonEmpty(std); !reflect.DeepEqual(a, b) {
			t.Fatalf("body %q: values %q, encoding/csv reads %q", body, a, b)
		}
		if len(std) > len(ours) {
			t.Fatalf("body %q: %d values, encoding/csv reads %d", body, len(ours), len(std))
		}
	}
}

func FuzzSplitCSVAgree(f *testing.F) {
	for _, seed := range splitSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkCSVAgainstStdlib(t, body)
	})
}

// coerceUTF8 is what encoding/json does to a string's invalid bytes:
// each becomes U+FFFD.
func coerceUTF8(s string) string {
	if utf8.ValidString(s) {
		return s
	}
	var b strings.Builder
	for _, r := range s { // ranging yields U+FFFD per invalid byte
		b.WriteRune(r)
	}
	return b.String()
}

// checkNDJSONAgainstStdlib compares one body with encoding/json line by
// line (the splitter stops at a body's first bad line, so each line is
// also split on its own).
func checkNDJSONAgainstStdlib(t *testing.T, body []byte) {
	t.Helper()
	agreeWithOracle(t, body, splitNDJSONColumn, oracleSplitNDJSON)
	for _, line := range bytes.Split(body, newline) {
		ours, err := agreeWithOracle(t, line, splitNDJSONColumn, oracleSplitNDJSON)
		token := bytes.Trim(line, " \t\r")
		switch {
		case len(token) == 0:
			// Difference "blank lines": skipped, not an error.
			if err != nil || len(ours) != 0 {
				t.Fatalf("blank line %q: %q, %v", line, ours, err)
			}
		case token[0] == '{' || token[0] == '[':
			// Difference "objects and arrays": a column has no use for them.
			if err == nil {
				t.Fatalf("line %q: accepted as %q", line, ours)
			}
		case token[0] != '"':
			// Difference "bare scalars": taken verbatim, valid JSON or not.
			if err != nil || len(ours) != 1 || ours[0] != string(token) {
				t.Fatalf("bare line %q: %q, %v", line, ours, err)
			}
		default:
			var std string
			stdErr := json.Unmarshal(token, &std)
			switch {
			case err != nil && stdErr == nil:
				t.Fatalf("line %q: rejected (%v) but encoding/json reads %q", line, err, std)
			case err != nil:
			case stdErr != nil:
				// Difference "raw control characters": encoding/json wants
				// them escaped, the endpoint takes the byte as sent.
				if bytes.IndexFunc(token, func(r rune) bool { return r < 0x20 }) < 0 {
					t.Fatalf("line %q: accepted as %q but encoding/json says %v", line, ours, stdErr)
				}
			default:
				// Difference "invalid UTF-8": passed through, where
				// encoding/json substitutes U+FFFD.
				if len(ours) != 1 || coerceUTF8(ours[0]) != std {
					t.Fatalf("line %q: %q, encoding/json reads %q", line, ours, std)
				}
			}
		}
	}
}

func FuzzSplitNDJSONAgree(f *testing.F) {
	for _, seed := range splitSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkNDJSONAgainstStdlib(t, body)
	})
}

// TestSplittersDifferFromStdlibOnPurpose names every place the
// endpoint's reading of a body departs from the standard library's, and
// pins both sides of each.
func TestSplittersDifferFromStdlibOnPurpose(t *testing.T) {
	csvCases := []struct {
		name, body string
		ours       []string // nil = rejected
		std        []string // nil = rejected
	}{
		{"empty lines", "a\n\nb\n", []string{"a", "", "b"}, []string{"a", "b"}},
		{"quoted \\r\\n", "\"a\r\nb\"\n", []string{"a\r\nb"}, []string{"a\nb"}},
		{"bare quote", "ab\"c\n", []string{"ab\"c"}, nil},
		{"multi-field rows", "a,b\n", nil, nil},
	}
	for _, tc := range csvCases {
		got, err := splitCSVColumn([]byte(tc.body), nil)
		if ours := cloneViews(got); (err != nil) != (tc.ours == nil) || (err == nil && !reflect.DeepEqual(ours, tc.ours)) {
			t.Errorf("csv %s: endpoint reads %q (%v), want %q", tc.name, ours, err, tc.ours)
		}
		std, err := stdlibCSV([]byte(tc.body))
		if (err != nil) != (tc.std == nil) || (err == nil && !reflect.DeepEqual(std, tc.std)) {
			t.Errorf("csv %s: encoding/csv reads %q (%v), want %q", tc.name, std, err, tc.std)
		}
		checkCSVAgainstStdlib(t, []byte(tc.body))
	}

	ndjsonCases := []struct {
		name, line string
		ours       []string // nil = rejected
		std        any      // what encoding/json decodes; nil = rejected
	}{
		{"blank lines", "  \r", []string{}, nil},
		{"objects and arrays", `{"a":1}`, nil, map[string]any{"a": 1.0}},
		{"bare scalars", "12x", []string{"12x"}, nil},
		{"bare scalars", "-4.5", []string{"-4.5"}, -4.5},
		{"raw control characters", "\"a\tb\"", []string{"a\tb"}, nil},
		{"invalid UTF-8", "\"a\xffb\"", []string{"a\xffb"}, "a�b"},
	}
	for _, tc := range ndjsonCases {
		got, err := splitNDJSONColumn([]byte(tc.line), [][]byte{})
		if ours := cloneViews(got); (err != nil) != (tc.ours == nil) || (err == nil && !reflect.DeepEqual(ours, tc.ours)) {
			t.Errorf("ndjson %s: endpoint reads %q (%v), want %q", tc.name, ours, err, tc.ours)
		}
		var std any
		if err := json.Unmarshal([]byte(tc.line), &std); (err != nil) != (tc.std == nil) || (err == nil && !reflect.DeepEqual(std, tc.std)) {
			t.Errorf("ndjson %s: encoding/json reads %v (%v), want %v", tc.name, std, err, tc.std)
		}
		checkNDJSONAgainstStdlib(t, []byte(tc.line))
	}
}

// TestSplitCapacityIsNeverOutgrown: decodeColumnar sizes the view index
// from the newline count; no body may yield more values than that.
func TestSplitCapacityIsNeverOutgrown(t *testing.T) {
	for _, seed := range splitSeeds {
		for _, split := range []func([]byte, [][]byte) ([][]byte, error){splitCSVColumn, splitNDJSONColumn} {
			body := []byte(seed)
			n := bytes.Count(body, newline) + 1
			got, err := split(body, make([][]byte, 0, n))
			if err == nil && cap(got) != n {
				t.Errorf("body %q: %d values outgrew the %d the newline count reserved", seed, len(got), n)
			}
		}
	}
}

// TestUnescapeReturnsPlainView: a string without escapes comes back as
// the very bytes between its quotes — nothing rewritten, nothing moved.
func TestUnescapeReturnsPlainView(t *testing.T) {
	slab := []byte(`"2019-03-01 10:00:00.000001"`)
	before := bytes.Clone(slab)
	v, err := unescapeJSONString(slab, 0, len(slab))
	if err != nil {
		t.Fatal(err)
	}
	if &v[0] != &slab[1] || len(v) != len(slab)-2 || !bytes.Equal(slab, before) {
		t.Errorf("view %q is not slab[1:%d] of an untouched slab %q", v, len(slab)-1, slab)
	}
	// With escapes, the bytes before the first backslash stay where they are.
	slab = []byte(`"abc\tdef\n"`)
	v, err = unescapeJSONString(slab, 0, len(slab))
	if err != nil || string(v) != "abc\tdef\n" || &v[0] != &slab[1] {
		t.Errorf("escaped view %q, %v", v, err)
	}
}
