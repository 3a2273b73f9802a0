package domain

import (
	"fmt"
	"slices"
	"testing"
)

// builtins every registered validator must include, with the expected
// family (Domain()).
var builtins = map[string]string{
	"isbn10": "checksum", "isbn13": "checksum", "iban": "checksum",
	"luhn": "checksum", "uuid": "rfc", "email": "rfc", "url": "rfc",
	"ipv4": "rfc", "ipv6": "rfc", "date": "calendar",
	"doi": "accession", "arxiv": "accession",
}

func TestRegistryBuiltins(t *testing.T) {
	for name, family := range builtins {
		v, ok := Lookup(name)
		if !ok {
			t.Errorf("builtin %q not registered", name)
			continue
		}
		if v.Domain() != family {
			t.Errorf("%s: family %q, want %q", name, v.Domain(), family)
		}
		if v.Description() == "" || len(v.Patterns()) == 0 {
			t.Errorf("%s: missing description or patterns", name)
		}
	}
	vs := Validators()
	if len(vs) < len(builtins) {
		t.Fatalf("registry has %d validators, want >= %d", len(vs), len(builtins))
	}
	for i := 1; i < len(vs); i++ {
		if vs[i-1].Priority() < vs[i].Priority() {
			t.Fatalf("registry order broken at %d: %s(%d) before %s(%d)",
				i, vs[i-1].Name(), vs[i-1].Priority(), vs[i].Name(), vs[i].Priority())
		}
	}
}

// checkCase is one table row: a value, whether the validator should
// claim it syntactically (CanValidate), and whether it is semantically
// valid (Validate == nil).
type checkCase struct {
	value string
	can   bool
	valid bool
}

// runCases drives a validator over its table, asserts the
// CanValidate-superset-of-Validate contract on every row, and checks
// that the string oracle agrees with the row.
func runCases(t *testing.T, name string, cases []checkCase) {
	t.Helper()
	v, ok := Lookup(name)
	if !ok {
		t.Fatalf("validator %q not registered", name)
	}
	o := oracles[name]
	for _, c := range cases {
		b := []byte(c.value)
		if got := v.CanValidate(b); got != c.can {
			t.Errorf("%s.CanValidate(%q) = %v, want %v", name, c.value, got, c.can)
		}
		err := v.Validate(b)
		if (err == nil) != c.valid {
			t.Errorf("%s.Validate(%q) = %v, want valid=%v", name, c.value, err, c.valid)
		}
		if err == nil && !v.CanValidate(b) {
			t.Errorf("%s: %q validates but CanValidate is false (superset contract)", name, c.value)
		}
		if o.CanValidate(c.value) != c.can || (o.Validate(c.value) == nil) != c.valid {
			t.Errorf("%s oracle disagrees with the row %q", name, c.value)
		}
	}
}

func TestISBN10(t *testing.T) {
	runCases(t, "isbn10", []checkCase{
		{"0306406152", true, true},    // canonical example, check digit 2
		{"0-306-40615-2", true, true}, // hyphenated form
		{"080442957X", true, true},    // X check character (= 10)
		{"080442957x", true, true},    // lowercase x accepted
		{"0306406153", true, false},   // check digit off by one
		{"0306406142", true, false},   // interior digit corrupted
		{"030640615", false, false},   // 9 characters
		{"03064061521", false, false}, // 11 characters
		{"X306406152", false, false},  // X only allowed last
		{"", false, false},
	})
}

func TestISBN13(t *testing.T) {
	runCases(t, "isbn13", []checkCase{
		{"9780306406157", true, true},     // canonical example
		{"978-0-306-40615-7", true, true}, // hyphenated form
		{"9791090636071", true, true},     // 979 bookland prefix
		{"9780306406158", true, false},    // check digit off by one
		{"9780316406157", true, false},    // interior digit corrupted
		{"1234567890123", false, false},   // no bookland prefix
		{"978030640615", false, false},    // 12 digits
		{"97803064061570", false, false},  // 14 digits
		{"", false, false},
	})
}

func TestIBAN(t *testing.T) {
	runCases(t, "iban", []checkCase{
		{"GB82WEST12345698765432", true, true},      // ISO 13616 example
		{"GB82 WEST 1234 5698 7654 32", true, true}, // paper form with spaces
		{"DE89370400440532013000", true, true},
		{"NO9386011117947", true, true},          // shortest format (15)
		{"DE89370400440532013001", true, false},  // mod-97 remainder wrong
		{"GB00WEST12345698765432", true, false},  // check digits corrupted
		{"gb82WEST12345698765432", false, false}, // lowercase country code
		{"G882WEST12345698765432", false, false}, // digit in country code
		{"DE8937040044", false, false},           // too short
		{"DE89!70400440532013000", false, false}, // non-alphanumeric
		{"", false, false},
	})
}

func TestLuhn(t *testing.T) {
	runCases(t, "luhn", []checkCase{
		{"4111111111111111", true, true},       // Visa test number
		{"4111 1111 1111 1111", true, true},    // embossed form with spaces
		{"378282246310005", true, true},        // 15-digit Amex test number
		{"490154203237518", true, true},        // 15-digit IMEI
		{"4111111111111112", true, false},      // check digit off by one
		{"4111111111111121", true, false},      // transposition
		{"79927398713", false, false},          // valid Luhn but 11 digits (below card range)
		{"41111111111111111111", false, false}, // 20 digits
		{"411111111111111a", false, false},     // non-digit
		{"", false, false},
	})
}

func TestUUID(t *testing.T) {
	runCases(t, "uuid", []checkCase{
		{"f47ac10b-58cc-4372-a567-0e02b2c3d479", true, true},   // v4, variant a
		{"F47AC10B-58CC-4372-A567-0E02B2C3D479", true, true},   // uppercase hex
		{"00000000-0000-0000-0000-000000000000", true, true},   // nil UUID (RFC 9562 §5.9)
		{"ffffffff-ffff-ffff-ffff-ffffffffffff", true, true},   // max UUID (§5.10)
		{"f47ac10b-58cc-0372-a567-0e02b2c3d479", true, false},  // version 0
		{"f47ac10b-58cc-9372-a567-0e02b2c3d479", true, false},  // version 9
		{"f47ac10b-58cc-4372-c567-0e02b2c3d479", true, false},  // variant c
		{"f47ac10b-58cc-4372-a567-0e02b2c3d47", false, false},  // 35 chars
		{"f47ac10b58cc4372a5670e02b2c3d479aaaa", false, false}, // no dashes
		{"g47ac10b-58cc-4372-a567-0e02b2c3d479", false, false}, // non-hex
	})
}

func TestEmail(t *testing.T) {
	runCases(t, "email", []checkCase{
		{"alice@example.com", true, true},
		{"a.b+tag@sub.example.co", true, true},
		{"x!#$%&'*@example.org", true, true},    // atext specials allowed
		{"alice@example", true, false},          // needs two labels
		{".alice@example.com", true, false},     // leading dot in local
		{"al..ice@example.com", true, false},    // doubled dot
		{"alice@-bad.example.com", true, false}, // label starts with hyphen
		{"alice@example.c", true, false},        // single-char TLD
		{"alice@example.123", true, false},      // numeric TLD
		{"al ice@example.com", true, false},     // space in local part
		{"no-at-sign.example.com", false, false},
		{"a@b@c.com", false, false},    // two @
		{"@example.com", false, false}, // empty local
	})
}

func TestURL(t *testing.T) {
	runCases(t, "url", []checkCase{
		{"https://example.com/path?q=1", true, true},
		{"http://localhost:8080/healthz", true, true}, // localhost exempt from two-label rule
		{"ftp://files.example.org/pub", true, true},
		{"https://192.168.0.1/admin", true, true},   // IP-literal host
		{"gopher://example.com", true, false},       // scheme outside {http, https, ftp}
		{"https://example.com:99999/", true, false}, // port out of range
		{"https://exa mple.com/", true, false},      // space breaks parsing
		{"https:///path", true, false},              // empty host
		{"example.com/path", false, false},          // no scheme
		{"", false, false},
	})
}

// ipv4Cases and dateCases also seed FuzzDomainValidateAgree.
var ipv4Cases = []checkCase{
	{"192.168.0.1", true, true},
	{"255.255.255.255", true, true},
	{"0.0.0.0", true, true},
	{"256.1.1.1", true, false},       // octet out of range
	{"192.168.001.001", true, false}, // leading zeros (inet_aton octal trap)
	{"1.2.3", false, false},          // three octets
	{"1.2.3.4.5", false, false},      // five octets
	{"1.2.3.x", false, false},        // non-digit
	{"", false, false},
}

func TestIPv4(t *testing.T) { runCases(t, "ipv4", ipv4Cases) }

func TestIPv6(t *testing.T) {
	runCases(t, "ipv6", []checkCase{
		{"2001:db8::1", true, true},
		{"::1", true, true},
		{"fe80::1%eth0", true, true},    // zoned link-local (netip accepts zones)
		{"2001:db8::zzzz", true, false}, // non-hex group
		{"2001:db8::1::2", true, false}, // double ::
		{"1:2", false, false},           // one colon
		{"", false, false},
	})
}

var dateCases = []checkCase{
	{"2021-02-28", true, true},
	{"2024-02-29", true, true}, // leap day
	{"2021/12/31", true, true},
	{"2021-06-01T12:30:45Z", true, true}, // RFC 3339
	{"31 Dec 2021", true, true},
	{"January 2, 2006", true, true},
	{"2021-02-30", true, false},    // impossible calendar date
	{"2023-02-29", true, false},    // not a leap year
	{"2021-13-01", true, false},    // month 13
	{"0001-02-03", true, false},    // implausible year
	{"version 1.2.3", true, false}, // right length + digits, no layout
	{"2021-1-1", false, false},     // under 10 chars
	{"", false, false},
}

func TestDate(t *testing.T) { runCases(t, "date", dateCases) }

func TestDOI(t *testing.T) {
	runCases(t, "doi", []checkCase{
		{"10.1145/3448016.3457250", true, true},
		{"https://doi.org/10.1000/182", true, true},
		{"doi:10.1000/182", true, true},
		{"10.12/abc", true, false},    // registrant under 4 digits
		{"10.1234/", true, false},     // empty suffix
		{"10.1234/ab c", true, false}, // whitespace in suffix
		{"11.1234/abc", false, false}, // wrong directory indicator
		{"10.1234-abc", false, false}, // no slash
		{"", false, false},
	})
}

func TestArxiv(t *testing.T) {
	runCases(t, "arxiv", []checkCase{
		{"2104.08821", true, true},
		{"2104.08821v2", true, true},
		{"arXiv:2104.08821", true, true},
		{"0704.0001", true, true},   // first month of the new scheme
		{"1412.1234", true, true},   // last month of 4-digit numbers
		{"1501.12345", true, true},  // first month of 5-digit numbers
		{"0801.12345", true, false}, // 5 digits before 2015
		{"1501.1234", true, false},  // 4 digits from 2015
		{"hep-th/9901001", true, true},
		{"math.AG/0601001", true, true}, // subject-class suffix
		{"2113.12345", true, false},     // month 13
		{"0601.12345", true, false},     // predates 2007-04
		{"hep-th/9913001", true, false}, // old-style month 13
		{"foo/1234567", false, false},   // unknown archive
		{"2104.088", false, false},      // number too short
		{"", false, false},
	})
}

func TestVocabulary(t *testing.T) {
	v := NewVocabulary([]string{"US", "UK", "DE"})
	if v.Name() != VocabularyName || v.Domain() != "vocabulary" {
		t.Fatalf("vocabulary identity = %s/%s", v.Name(), v.Domain())
	}
	for _, w := range []string{"US", "UK", "DE"} {
		if err := v.Validate([]byte(w)); err != nil {
			t.Errorf("Validate(%q) = %v, want nil", w, err)
		}
	}
	if err := v.Validate([]byte("FR")); err == nil {
		t.Error("Validate(FR) = nil, want out-of-vocabulary error")
	}
	if err := v.Validate(nil); err == nil {
		t.Error("Validate(\"\") = nil, want error")
	}
}

func TestRegisterRejectsBadValidators(t *testing.T) {
	if err := Register(nil); err == nil {
		t.Error("Register(nil) = nil, want error")
	}
	if err := Register(&isbn10Validator{base{}}); err == nil {
		t.Error("Register with empty name = nil, want error")
	}
	before := len(Validators())
	if err := Register(&isbn10Validator{base{name: "isbn10"}}); err == nil {
		t.Error("Register(duplicate isbn10) = nil, want error")
	}
	if got := len(Validators()); got != before {
		t.Errorf("rejected registration changed the registry: %d -> %d validators", before, got)
	}
}

func TestBuiltinRegistrationClean(t *testing.T) {
	if err := InitError(); err != nil {
		t.Fatalf("built-in validator registration failed: %v", err)
	}
}

func TestDetect(t *testing.T) {
	uuids := []string{
		"f47ac10b-58cc-4372-a567-0e02b2c3d479",
		"9b2b7a3e-1c4d-4e5f-8a6b-7c8d9e0f1a2b",
		"0e545a68-c541-4bd4-9778-6e0a2a2b3c4d",
		"3f1e2d3c-4b5a-4978-b123-456789abcdef",
	}
	var col []string
	for i := 0; i < 4; i++ {
		col = append(col, uuids...)
	}
	d, ok := Detect(col)
	if !ok || d.Name != "uuid" || d.Family != "rfc" {
		t.Fatalf("Detect(uuids) = %+v ok=%v, want uuid/rfc", d, ok)
	}
	if d.Confidence != 1 || d.Sampled != len(col) || d.Valid != len(col) {
		t.Errorf("Detect(uuids) counts = %+v", d)
	}

	// Empty values are skipped, not counted against confidence.
	withBlanks := append([]string{"", "", ""}, col...)
	if d, ok := Detect(withBlanks); !ok || d.Name != "uuid" || d.Sampled != len(col) {
		t.Errorf("Detect with blanks = %+v ok=%v", d, ok)
	}

	// Below the sample floor: no decision from 7 values.
	if _, ok := Detect(col[:7]); ok {
		t.Error("Detect decided from fewer than minDetectSample values")
	}

	// Below the confidence threshold: a fifth of the column corrupted.
	mixed := append([]string(nil), col...)
	for i := 0; i < len(mixed); i += 4 {
		mixed[i] = "not-a-uuid-at-all-padding-to-36-chars"
	}
	if d, ok := Detect(mixed); ok {
		t.Errorf("Detect(25%% corrupt) = %+v, want no domain", d)
	}

	// No validator claims free text.
	words := make([]string, 16)
	for i := range words {
		words[i] = fmt.Sprintf("word-%c", 'a'+i)
	}
	if d, ok := Detect(words); ok {
		t.Errorf("Detect(words) = %+v, want no domain", d)
	}
}

func TestDetectLargeColumnSamples(t *testing.T) {
	col := make([]string, 10_000)
	for i := range col {
		col[i] = "192.168.0.1"
	}
	d, ok := Detect(col)
	if !ok || d.Name != "ipv4" {
		t.Fatalf("Detect(large ipv4) = %+v ok=%v", d, ok)
	}
	if d.Sampled != maxDetectSample {
		t.Errorf("sampled %d values, want cap %d", d.Sampled, maxDetectSample)
	}
}

func TestProposeVocabularyFallback(t *testing.T) {
	col := make([]string, 120)
	colors := []string{"red", "green", "blue"}
	for i := range col {
		col[i] = colors[i%len(colors)]
	}
	d, ok := Propose(col)
	if !ok || d.Name != VocabularyName {
		t.Fatalf("Propose(categorical) = %+v ok=%v, want vocabulary", d, ok)
	}
	if len(d.Vocab) != 3 || d.Vocab[0] != "blue" || d.Vocab[1] != "green" || d.Vocab[2] != "red" {
		t.Errorf("vocab = %v, want sorted [blue green red]", d.Vocab)
	}
	// The detection round-trips into a working validator.
	v := NewVocabulary(d.Vocab)
	if err := v.Validate([]byte("green")); err != nil {
		t.Errorf("reconstructed vocabulary rejects member: %v", err)
	}
	if err := v.Validate([]byte("mauve")); err == nil {
		t.Error("reconstructed vocabulary accepts non-member")
	}

	// The vocabulary is exactly the sorted distinct training values, in
	// byte order: duplicates collapse, case is kept apart, non-ASCII
	// words sort by their UTF-8 bytes, and an empty training value is
	// kept — persisted registries carry it. The rebuilt validator still
	// rejects "", since an empty value never passes a domain check.
	mixed := make([]string, 120)
	words := []string{"red", "Red", "Zürich", "", "blue", "red"}
	for i := range mixed {
		mixed[i] = words[i%len(words)]
	}
	d, ok = Propose(mixed)
	if !ok || d.Name != VocabularyName {
		t.Fatalf("Propose(mixed vocabulary) = %+v ok=%v, want vocabulary", d, ok)
	}
	want := []string{"", "Red", "Zürich", "blue", "red"}
	if !slices.Equal(d.Vocab, want) {
		t.Errorf("vocab = %q, want %q", d.Vocab, want)
	}
	v = NewVocabulary(d.Vocab)
	if err := v.Validate(nil); err == nil {
		t.Error(`reconstructed vocabulary accepts ""`)
	}
	for _, w := range want[1:] {
		if err := v.Validate([]byte(w)); err != nil {
			t.Errorf("reconstructed vocabulary rejects %q: %v", w, err)
		}
	}
	if err := v.Validate([]byte("RED")); err == nil {
		t.Error("reconstructed vocabulary folds case")
	}

	// A high-cardinality column is not vocabulary-like.
	unique := make([]string, 120)
	for i := range unique {
		unique[i] = fmt.Sprintf("free text row %d", i)
	}
	if d, ok := Propose(unique); ok {
		t.Errorf("Propose(unique rows) = %+v, want none", d)
	}

	// Built-in detection outranks the vocabulary fallback even when the
	// column is low-cardinality.
	ips := make([]string, 120)
	for i := range ips {
		ips[i] = fmt.Sprintf("10.0.0.%d", i%5)
	}
	if d, ok := Propose(ips); !ok || d.Name != "ipv4" {
		t.Errorf("Propose(repetitive ips) = %+v ok=%v, want ipv4", d, ok)
	}
}

// TestCheck: the per-value check an embedding application makes is a
// registry lookup and the validator's own Validate.
func TestCheck(t *testing.T) {
	v, ok := Lookup("uuid")
	if !ok {
		t.Fatal("uuid not registered")
	}
	if err := v.Validate([]byte("f47ac10b-58cc-4372-a567-0e02b2c3d479")); err != nil {
		t.Errorf("uuid.Validate(valid) = %v", err)
	}
	if err := v.Validate([]byte("f47ac10b-58cc-0372-a567-0e02b2c3d479")); err == nil {
		t.Error("uuid.Validate(bad version) = nil, want error")
	}
	if _, ok := Lookup("no-such-domain"); ok {
		t.Error("Lookup(unknown) found a validator")
	}
}
