package monitor

import (
	"errors"
	"fmt"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"autovalidate/internal/domain"
	"autovalidate/internal/pattern"
	"autovalidate/internal/registry"
	"autovalidate/internal/stats"
	"autovalidate/internal/validate"
)

// vocabStream is a stream whose rule accepts any word of letters and
// whose learned vocabulary is the given word list.
func vocabStream(t *testing.T, version int, words []string) registry.Stream {
	t.Helper()
	p, err := pattern.Parse("<letter>+")
	if err != nil {
		t.Fatal(err)
	}
	rule := &validate.Rule{Pattern: p, EstimatedFPR: 0.01, TrainTotal: 1000, Test: stats.Fisher, Alpha: 1e-300, Strategy: "FMDV"}
	s := stream("feed.status", rule, false)
	s.Version = version
	s.Domain = domain.Detection{Name: domain.VocabularyName, Family: "vocabulary", Confidence: 1, Vocab: words}
	return s
}

// domainStream is a stream whose rule is the given pattern and whose
// detected domain is the named validator.
func domainStream(t *testing.T, pat, dom string) registry.Stream {
	t.Helper()
	p, err := pattern.Parse(pat)
	if err != nil {
		t.Fatal(err)
	}
	rule := &validate.Rule{Pattern: p, EstimatedFPR: 0.01, TrainTotal: 1000, Test: stats.Fisher, Alpha: 1e-300, Strategy: "FMDV"}
	s := stream("feed."+dom, rule, false)
	s.Domain = domain.Detection{Name: dom, Family: "test", Confidence: 1}
	return s
}

// oracleValidator runs a string check in place of a built-in's byte
// parser, under its own registry name, so an engine can be driven by
// the slow obvious side of a domain.
type oracleValidator struct {
	domain.Validator // the built-in: its descriptive half
	name             string
	check            func(string) error
}

func (o oracleValidator) Name() string            { return o.name }
func (o oracleValidator) Validate(b []byte) error { return o.check(string(b)) }

// oracleDate and oracleIPv4 are the date and ipv4 validators as they
// were before they parsed bytes: time.Parse over the eight layouts and
// net/netip.
func oracleDate(s string) error {
	if len(s) < 10 || len(s) > 35 || !strings.ContainsAny(s, "0123456789") {
		return errors.New("date: wrong length or no digits")
	}
	for _, layout := range []string{"2006-01-02", "2006/01/02", "2006-01-02 15:04:05", "2006-01-02T15:04:05",
		time.RFC3339, "02 Jan 2006", "Jan 02 2006", "January 2, 2006"} {
		if t, err := time.Parse(layout, s); err == nil {
			if y := t.Year(); y < 1200 || y > 2999 {
				return errors.New("date: implausible year")
			}
			return nil
		}
	}
	return errors.New("date: no layout parses")
}

func oracleIPv4(s string) error {
	if len(s) < 7 || len(s) > 15 || strings.Count(s, ".") != 3 || strings.Trim(s, ".0123456789") != "" {
		return errors.New("ipv4: not four dot-separated decimal octets")
	}
	if addr, err := netip.ParseAddr(s); err != nil || !addr.Is4() {
		return errors.New("ipv4: does not parse")
	}
	return nil
}

// oracleName registers the oracles for date and ipv4 (once per test
// binary) and returns the registry name standing in for the built-in
// dom; other domains have no oracle here and keep their name.
func oracleName(t *testing.T, dom string) string {
	t.Helper()
	if err := registerOracles(); err != nil {
		t.Fatal(err)
	}
	if dom == "date" || dom == "ipv4" {
		return "oracle-" + dom
	}
	return dom
}

var registerOracles = sync.OnceValue(func() error {
	for name, check := range map[string]func(string) error{"date": oracleDate, "ipv4": oracleIPv4} {
		builtin, ok := domain.Lookup(name)
		if !ok {
			return fmt.Errorf("built-in %q not registered", name)
		}
		if err := domain.Register(oracleValidator{builtin, "oracle-" + name, check}); err != nil {
			return err
		}
	}
	return nil
})

// words returns n distinct lower-case words.
func words(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = "w" + letters(i)
	}
	return out
}

func letters(i int) string {
	s := ""
	for {
		s += string(rune('a' + i%26))
		if i /= 26; i == 0 {
			return s
		}
	}
}

// TestVocabularyResolvedOncePerVersion: checking a batch against a
// vocabulary stream must not rebuild the dictionary, so what a check
// allocates is the same for a 10-word and a 1 000-word vocabulary.
// (At the parent every batch paid domain.NewVocabulary: a map and one
// insert per word.)
func TestVocabularyResolvedOncePerVersion(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop puts; alloc counts are meaningless")
	}
	allocs := func(vocab []string) float64 {
		e := NewEngine(DefaultPolicy())
		s := vocabStream(t, 1, vocab)
		batch := make([][]byte, 200)
		for i := range batch {
			batch[i] = []byte(vocab[i%len(vocab)])
		}
		check := func() {
			if _, err := e.CheckBytes(s, batch); err != nil {
				t.Fatal(err)
			}
		}
		check() // resolves the validator, fills the report pool
		return testing.AllocsPerRun(20, check)
	}
	small, large := allocs(words(10)), allocs(words(1000))
	if small != large {
		t.Errorf("CheckBytes allocates %v per batch under a 10-word vocabulary and %v under a 1000-word one; the dictionary is being rebuilt per batch", small, large)
	}
}

// TestReinferredStreamGetsNewValidator: a new version of the stream
// (re-inference learned a new vocabulary) is checked against the new
// words on its very next batch, with and without the Reset the service
// issues, and both check paths agree.
func TestReinferredStreamGetsNewValidator(t *testing.T) {
	for _, reset := range []bool{true, false} {
		t.Run(fmt.Sprintf("reset=%v", reset), func(t *testing.T) {
			e := NewEngine(DefaultPolicy())
			v1 := vocabStream(t, 1, []string{"open", "closed"})
			v2 := vocabStream(t, 2, []string{"active", "archived"})
			batch := []string{"open", "closed", "open", "active"}
			raw := make([][]byte, len(batch))
			for i, s := range batch {
				raw[i] = []byte(s)
			}

			dec, err := e.CheckBytes(v1, raw)
			if err != nil {
				t.Fatal(err)
			}
			if dec.Verdict.DomainInvalid != 1 {
				t.Fatalf("version 1: %d domain-invalid, want 1 (\"active\")", dec.Verdict.DomainInvalid)
			}
			if reset {
				e.Reset(v1.Name)
			}
			dec, err = e.CheckBytes(v2, raw)
			if err != nil {
				t.Fatal(err)
			}
			if dec.Verdict.DomainInvalid != 3 {
				t.Errorf("version 2 (CheckBytes): %d domain-invalid, want 3 — the version-1 dictionary is still in use", dec.Verdict.DomainInvalid)
			}
			dec, err = e.Check(v2, batch)
			if err != nil {
				t.Fatal(err)
			}
			if dec.Verdict.DomainInvalid != 3 {
				t.Errorf("version 2 (Check): %d domain-invalid, want 3", dec.Verdict.DomainInvalid)
			}
		})
	}
}

// TestReplacedRegistrySameVersion: a replaced registry (a follower
// installing a snapshot from a restarted leader) can carry a different
// rule and vocabulary under a version number the engine has already
// checked; the validator follows the rule, not the number.
func TestReplacedRegistrySameVersion(t *testing.T) {
	e := NewEngine(DefaultPolicy())
	raw := [][]byte{[]byte("open"), []byte("active")}
	if dec, err := e.CheckBytes(vocabStream(t, 1, []string{"open"}), raw); err != nil || dec.Verdict.DomainInvalid != 1 {
		t.Fatalf("first registry: %+v, %v", dec.Verdict, err)
	}
	dec, err := e.CheckBytes(vocabStream(t, 1, []string{"active"}), raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Verdict.DomainExamples) != 1 || dec.Verdict.DomainExamples[0] != "open" {
		t.Errorf("replaced registry: domain examples %q, want [open]", dec.Verdict.DomainExamples)
	}
}

// TestUnknownDomainStaysSyntactic: a domain name this build does not
// know is resolved (to nothing) once and the stream is monitored by its
// pattern alone.
func TestUnknownDomainStaysSyntactic(t *testing.T) {
	e := NewEngine(DefaultPolicy())
	s := vocabStream(t, 1, nil)
	s.Domain = domain.Detection{Name: "from-a-newer-binary"}
	for i := 0; i < 2; i++ {
		dec, err := e.CheckBytes(s, [][]byte{[]byte("open")})
		if err != nil {
			t.Fatal(err)
		}
		if dec.Verdict.Domain != "" || dec.Verdict.DomainInvalid != 0 {
			t.Errorf("unknown domain produced a semantic verdict: %+v", dec.Verdict)
		}
	}
}

// TestCheckCleanBatchAllocatesNothing: checking a clean batch — every
// value conforming and semantically valid — allocates nothing on a
// domain stream, through either front: byte views go to the validator
// as they are, strings through one pooled scratch buffer.
func TestCheckCleanBatchAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop puts; alloc counts are meaningless")
	}
	for _, tc := range []struct {
		st   registry.Stream
		vals []string
	}{
		{domainStream(t, "<digit>{4}-<digit>{2}-<digit>{2}", "date"),
			[]string{"2021-02-28", "2024-02-29", "1999-12-31"}},
		{domainStream(t, "<digit>+.<digit>+.<digit>+.<digit>+", "ipv4"),
			[]string{"10.0.0.1", "192.168.0.254", "255.255.255.255"}},
		{domainStream(t, "<alnum>{8}-<alnum>{4}-<alnum>{4}-<alnum>{4}-<alnum>{12}", "uuid"),
			[]string{"f47ac10b-58cc-4372-a567-0e02b2c3d479", "9B2B7A3E-1C4D-4E5F-8A6B-7C8D9E0F1A2B"}},
		{domainStream(t, "<digit>{16}", "luhn"),
			[]string{"4111111111111111", "5500005555555559"}},
		{vocabStream(t, 1, words(20)), words(20)},
	} {
		strs := make([]string, 1000)
		views := make([][]byte, len(strs))
		for i := range strs {
			strs[i] = tc.vals[i%len(tc.vals)]
			views[i] = []byte(strs[i])
		}
		// A full ring stops growing: warm it past window batches.
		e := NewEngine(DefaultPolicy())
		for i := 0; i <= window; i++ {
			var dec Decision
			var err error
			if i%2 == 0 {
				dec, err = e.Check(tc.st, strs)
			} else {
				dec, err = e.CheckBytes(tc.st, views)
			}
			if err != nil {
				t.Fatal(err)
			}
			if v := dec.Verdict; v.NonConforming != 0 || v.DomainInvalid != 0 || v.Domain == "" {
				t.Fatalf("%s: batch not clean on a domain stream: %+v", tc.st.Domain.Name, v)
			}
		}
		byteAllocs := testing.AllocsPerRun(20, func() { _, _ = e.CheckBytes(tc.st, views) })
		strAllocs := testing.AllocsPerRun(20, func() { _, _ = e.Check(tc.st, strs) })
		if byteAllocs != 0 || strAllocs != 0 {
			t.Errorf("%s: a clean 1000-value batch allocates %v (CheckBytes) and %v (Check), want 0",
				tc.st.Domain.Name, byteAllocs, strAllocs)
		}
	}
}
