package domain

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// detectSeeds are FuzzDomainDetect's inline seeds, shared with
// FuzzDomainValidateAgree.
var detectSeeds = []string{
	"", " ", "-", "0306406152", "9780306406157", "979-10-90636-07-1",
	"GB82WEST12345698765432", "4111 1111 1111 1111",
	"f47ac10b-58cc-4372-a567-0e02b2c3d479",
	"00000000-0000-0000-0000-000000000000",
	"alice@example.com", "https://example.com/path?q=1",
	"192.168.001.001", "2001:db8::1", "fe80::1%eth0",
	"2024-02-29", "2021-02-30", "2021-06-01T12:30:45Z",
	"10.1145/3448016.3457250", "doi:10.1000/182",
	"arXiv:2104.08821v2", "hep-th/9901001",
	"\x00\xff\xfe", "０１２３４５６７８９", "ＡＢＣ@ｅｘ.ｃｏｍ",
	"999999999999999999999999999999999999",
}

// FuzzDomainDetect feeds arbitrary bytes through every registered
// validator and the detection path. Two properties must hold for any
// input: nothing panics, and the CanValidate-superset-of-Validate
// contract is honored (a value Validate accepts must have CanValidate
// true, or detection routing would silently skip valid values).
func FuzzDomainDetect(f *testing.F) {
	for _, s := range detectSeeds {
		f.Add(s)
	}
	vocab := NewVocabulary([]string{"alpha", "beta", "gamma"})
	f.Fuzz(func(t *testing.T, s string) {
		b := []byte(s)
		for _, v := range append(Validators(), vocab) {
			err := v.Validate(b)
			if err == nil && !v.CanValidate(b) {
				t.Errorf("%s: Validate(%q) accepted but CanValidate is false", v.Name(), s)
			}
		}
		// The detection paths must also survive arbitrary values; a
		// 60-wide column of one repeated value exercises the vocabulary
		// fallback (it needs >= minCategoricalSize values).
		col := make([]string, 60)
		for i := range col {
			col[i] = s
		}
		Detect(col)
		Propose(col)
	})
}

// FuzzDomainValidateAgree checks every built-in byte validator, and a
// vocabulary, against its string oracle (oracle_test.go): the same
// CanValidate answer, the same nil/non-nil Validate answer, the
// superset contract, and the value bytes left as they were.
func FuzzDomainValidateAgree(f *testing.F) {
	for _, s := range detectSeeds {
		f.Add(s)
	}
	for _, s := range corpusSeeds(f, "FuzzDomainDetect") {
		f.Add(s)
	}
	for _, c := range append(append([]checkCase(nil), dateCases...), ipv4Cases...) {
		f.Add(c.value)
	}
	// time.Parse's and netip's corners: zone offsets, a comma before the
	// fraction, a one-digit hour, space runs, month names in any case,
	// "May" as a short and a long name, embedded dotted quads, zones.
	for _, s := range []string{
		"2021-06-01T12:30:45.123+05:30", "2021-06-01T12:30:45-24:60", "2021-06-01 1:02:03,5",
		"2021-06-01   12:30:45", "May 2, 2006", "MAY 02 2006", "29 feb 2024", "1 Jan 2006",
		"::ffff:1.2.3.4", "1:2:3:4:5:6:7:8", "1::2:3:4:5:6:7", "1:2:3:4:5:6:1.2.3.4%z", "::",
		"http://[fe80::1%25eth0]:80/x", "https://1.2.3.4:8080/", "HTTPS://DOI.ORG/10.1000/182",
		"GB82 WEST 1234 5698 7654 32", "978-0-306-40615-7", "080442957X", "1501.12345v3",
		"0801.12345", "1501.1234", "math.AG/0601001", "a.b+tag@sub.example.co",
	} {
		f.Add(s)
	}
	words := []string{"alpha", "beta", "gamma"}
	vocab, vocabOracle := NewVocabulary(words), oracleVocab{}
	for _, w := range words {
		vocabOracle[w] = struct{}{}
	}
	f.Fuzz(func(t *testing.T, s string) {
		b := []byte(s)
		for _, v := range Validators() {
			o, ok := oracles[v.Name()]
			if !ok {
				t.Fatalf("validator %q has no oracle", v.Name())
			}
			agree(t, v, o, b, s)
		}
		agree(t, vocab, vocabOracle, b, s)
	})
}

func agree(t *testing.T, v Validator, o oracle, b []byte, s string) {
	t.Helper()
	if got, want := v.CanValidate(b), o.CanValidate(s); got != want {
		t.Errorf("%s.CanValidate(%q) = %v, oracle %v", v.Name(), s, got, want)
	}
	err, want := v.Validate(b), o.Validate(s)
	if (err == nil) != (want == nil) {
		t.Errorf("%s.Validate(%q) = %v, oracle %v", v.Name(), s, err, want)
	}
	if err == nil && !v.CanValidate(b) {
		t.Errorf("%s: Validate(%q) accepted but CanValidate is false", v.Name(), s)
	}
	if string(b) != s {
		t.Fatalf("%s modified its input %q to %q", v.Name(), s, b)
	}
}

// corpusSeeds reads the string values of a fuzz target's committed
// corpus under testdata/fuzz.
func corpusSeeds(f *testing.F, target string) []string {
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", target, "*"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no committed corpus for %s: %v", target, err)
	}
	var out []string
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			if arg, ok := strings.CutPrefix(line, "string("); ok {
				s, err := strconv.Unquote(strings.TrimSuffix(arg, ")"))
				if err != nil {
					f.Fatalf("%s: %v", name, err)
				}
				out = append(out, s)
			}
		}
	}
	return out
}
