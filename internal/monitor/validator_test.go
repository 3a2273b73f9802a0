package monitor

import (
	"fmt"
	"testing"

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
