package monitor

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"autovalidate/internal/core"
	"autovalidate/internal/pattern"
	"autovalidate/internal/registry"
	"autovalidate/internal/stats"
	"autovalidate/internal/validate"
)

// fourDigitRule matches <digit>{4} with a configurable FPR bound. The
// homogeneity alpha is driven to zero so tests exercise the monitor's
// own binomial drift test in isolation.
func fourDigitRule(t *testing.T, estFPR float64, homogeneityAlpha float64) *validate.Rule {
	t.Helper()
	p, err := pattern.Parse("<digit>{4}")
	if err != nil {
		t.Fatal(err)
	}
	return &validate.Rule{
		Pattern:      p,
		EstimatedFPR: estFPR,
		TrainTotal:   1000,
		Test:         stats.Fisher,
		Alpha:        homogeneityAlpha,
		Strategy:     "FMDV",
	}
}

func stream(name string, rule *validate.Rule, stale bool) registry.Stream {
	return registry.Stream{Name: name, Version: 1, Rule: rule, Options: core.DefaultOptions(), Stale: stale}
}

// batch builds n values with exactly bad non-conforming ones.
func batch(n, bad int) []string {
	out := make([]string, n)
	for i := range out {
		if i < bad {
			out[i] = "XX"
		} else {
			out[i] = "1234"
		}
	}
	return out
}

// alarmThreshold returns the smallest non-conforming count whose
// binomial tail p-value against bound falls below alpha.
func alarmThreshold(n int, bound, alpha float64) int {
	for k := 0; k <= n; k++ {
		if stats.BinomialTailP(k, n, bound) < alpha {
			return k
		}
	}
	return n + 1
}

// TestAlarmBoundary is the satellite's table-driven boundary test: one
// non-conforming value below the binomial threshold must accept, the
// threshold itself must alarm — across batch sizes and FPR bounds.
func TestAlarmBoundary(t *testing.T) {
	pol := DefaultPolicy()
	cases := []struct {
		name  string
		n     int
		bound float64
	}{
		{"small batch loose bound", 50, 0.10},
		{"mid batch default bound", 200, 0.05},
		{"large batch tight bound", 1000, 0.01},
		{"clean rule floor", 400, 0}, // bound floors at 1e-4
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rule := fourDigitRule(t, c.bound, 1e-300)
			effBound := c.bound
			if effBound < 1e-4 {
				effBound = 1e-4
			}
			k := alarmThreshold(c.n, effBound, pol.Alpha)
			if k > c.n {
				t.Fatalf("no alarm threshold within batch size %d", c.n)
			}

			// k-1 non-conforming: still consistent with the bound.
			e := NewEngine(pol)
			dec, err := e.Check(stream("s", rule, false), batch(c.n, k-1))
			if err != nil {
				t.Fatal(err)
			}
			if dec.Verdict.Action != Accept {
				t.Errorf("%d/%d non-conforming (p=%g): action %v, want accept",
					k-1, c.n, dec.Verdict.DriftP, dec.Verdict.Action)
			}
			// k non-conforming: just over the line.
			dec, err = e.Check(stream("s", rule, false), batch(c.n, k))
			if err != nil {
				t.Fatal(err)
			}
			if dec.Verdict.Action != Alarm {
				t.Errorf("%d/%d non-conforming (p=%g): action %v, want alarm",
					k, c.n, dec.Verdict.DriftP, dec.Verdict.Action)
			}
			if dec.Verdict.DriftP >= pol.Alpha {
				t.Errorf("alarming verdict carries p=%g >= alpha=%g", dec.Verdict.DriftP, pol.Alpha)
			}
		})
	}
}

func TestEscalationLadder(t *testing.T) {
	pol := DefaultPolicy()
	pol.QuarantineAfter = 2
	pol.ReinferAfter = 4
	e := NewEngine(pol)
	rule := fourDigitRule(t, 0.01, 1e-300)
	s := stream("esc", rule, false)
	bad := batch(100, 30) // far over the bound, always alarming

	want := []Action{Alarm, Quarantine, Quarantine, Reinfer, Reinfer}
	for i, w := range want {
		dec, err := e.Check(s, bad)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Verdict.Action != w {
			t.Fatalf("batch %d: action %v, want %v", i+1, dec.Verdict.Action, w)
		}
		if dec.ConsecutiveAlarms != i+1 {
			t.Errorf("batch %d: consec %d, want %d", i+1, dec.ConsecutiveAlarms, i+1)
		}
	}
	// A clean batch resets the run.
	dec, err := e.Check(s, batch(100, 0))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Verdict.Action != Accept || dec.ConsecutiveAlarms != 0 {
		t.Errorf("clean batch: action %v consec %d, want accept/0", dec.Verdict.Action, dec.ConsecutiveAlarms)
	}
	if dec2, _ := e.Check(s, bad); dec2.Verdict.Action != Alarm {
		t.Errorf("post-reset alarming batch: action %v, want alarm (ladder restarted)", dec2.Verdict.Action)
	}

	h, ok := e.History("esc")
	if !ok {
		t.Fatal("history missing")
	}
	if h.Batches != 7 || h.Alarms != 6 || h.Quarantined != 2 || h.Reinfers != 2 {
		t.Errorf("history = %d batches / %d alarms / %d quarantined / %d reinfers, want 7/6/2/2",
			h.Batches, h.Alarms, h.Quarantined, h.Reinfers)
	}
}

func TestStaleRuleEscalatesToReinfer(t *testing.T) {
	e := NewEngine(DefaultPolicy())
	rule := fourDigitRule(t, 0.01, 1e-300)
	dec, err := e.Check(stream("stale", rule, true), batch(100, 30))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Verdict.Action != Reinfer {
		t.Errorf("alarming batch on stale rule: action %v, want reinfer", dec.Verdict.Action)
	}
	if !dec.Stale {
		t.Error("decision should mirror staleness")
	}
	// A stale rule that still fits its batches keeps accepting.
	if dec, _ := e.Check(stream("stale2", rule, true), batch(100, 0)); dec.Verdict.Action != Accept {
		t.Errorf("clean batch on stale rule: action %v, want accept", dec.Verdict.Action)
	}
}

func TestSmallBatchesAccepted(t *testing.T) {
	pol := DefaultPolicy()
	pol.MinBatch = 10
	e := NewEngine(pol)
	rule := fourDigitRule(t, 0.01, 1e-300)
	// 5 of 5 non-conforming, but below MinBatch: accepted.
	dec, err := e.Check(stream("tiny", rule, false), batch(5, 5))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Verdict.Action != Accept {
		t.Errorf("sub-MinBatch batch: action %v, want accept", dec.Verdict.Action)
	}
}

func TestEmptyBatchAndNilRule(t *testing.T) {
	e := NewEngine(DefaultPolicy())
	if _, err := e.Check(stream("s", fourDigitRule(t, 0.01, 0.01), false), nil); err == nil {
		t.Error("empty batch should error")
	}
	if _, err := e.Check(registry.Stream{Name: "s"}, batch(10, 0)); err == nil {
		t.Error("nil rule should error")
	}
}

func TestRingBufferWindowAndEWMA(t *testing.T) {
	pol := DefaultPolicy()
	pol.Window = 4
	e := NewEngine(pol)
	rule := fourDigitRule(t, 0.05, 1e-300)
	s := stream("ring", rule, false)
	for i := 0; i < 10; i++ {
		if _, err := e.Check(s, batch(50, i%2)); err != nil {
			t.Fatal(err)
		}
	}
	h, _ := e.History("ring")
	if len(h.Window) != 4 {
		t.Fatalf("window holds %d verdicts, want 4", len(h.Window))
	}
	for i, v := range h.Window {
		if want := 7 + i; v.Seq != want {
			t.Errorf("window[%d].Seq = %d, want %d (oldest-first)", i, v.Seq, want)
		}
	}
	if h.Batches != 10 || h.Values != 500 || h.NonConforming != 5 {
		t.Errorf("totals = %d/%d/%d, want 10/500/5", h.Batches, h.Values, h.NonConforming)
	}
	if h.PassEWMA <= 0.9 || h.PassEWMA > 1 {
		t.Errorf("pass EWMA = %g, want in (0.9, 1]", h.PassEWMA)
	}

	e.Reset("ring")
	if _, ok := e.History("ring"); ok {
		t.Error("history should be gone after Reset")
	}
}

// TestHomogeneityAlarmAlsoEscalates: the rule's own §4 test alone (big
// jump vs training theta, loose FPR bound) must still trigger the
// ladder.
func TestHomogeneityAlarmAlsoEscalates(t *testing.T) {
	rule := fourDigitRule(t, 0.9, 0.01) // binomial bound effectively disabled
	rule.TrainNonConforming = 0
	e := NewEngine(DefaultPolicy())
	dec, err := e.Check(stream("h", rule, false), batch(200, 60))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Verdict.Action != Alarm {
		t.Errorf("homogeneity-only drift: action %v, want alarm", dec.Verdict.Action)
	}
}

func TestConcurrentChecks(t *testing.T) {
	e := NewEngine(DefaultPolicy())
	rule := fourDigitRule(t, 0.05, 1e-300)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := stream(fmt.Sprintf("s%d", w%3), rule, false)
			for i := 0; i < 100; i++ {
				if _, err := e.Check(s, batch(40, i%3)); err != nil {
					t.Error(err)
					return
				}
				e.History(s.Name)
			}
		}(w)
	}
	wg.Wait()
	for i := 0; i < 3; i++ {
		h, ok := e.History(fmt.Sprintf("s%d", i))
		if !ok {
			t.Fatalf("s%d history missing", i)
		}
		if h.Batches == 0 || h.Values != h.Batches*40 {
			t.Errorf("s%d totals inconsistent: %+v", i, h)
		}
	}
}

// TestCheckBytesMatchesCheck is the front-agreement check: the string
// front and the byte-slice front share one body, so identical batches
// (on separate engines, so both see the same history) must produce
// identical decisions — counts, examples in order, rolling state, the
// semantic-domain fields and the attribution of an alarming batch.
func TestCheckBytesMatchesCheck(t *testing.T) {
	// A vocabulary stream: off-vocabulary words pass the pattern and
	// fail the domain, digits fail both.
	vocab := vocabStream(t, 1, words(20))
	semantic := func(offVocab, digits int) []string {
		out := make([]string, 0, 200)
		for i := 0; i < 200; i++ {
			switch {
			case i < offVocab:
				out = append(out, "zz"+letters(i))
			case i < offVocab+digits:
				out = append(out, fmt.Sprint(1000+i))
			default:
				out = append(out, vocab.Domain.Vocab[i%20])
			}
		}
		return out
	}
	plain := stream("s", fourDigitRule(t, 0.01, 0.01), false)
	strEngine, byteEngine := NewEngine(DefaultPolicy()), NewEngine(DefaultPolicy())
	for _, tc := range []struct {
		name       string
		st         registry.Stream
		vals       []string
		wantAction Action
		wantDomain bool
	}{
		{"clean", plain, batch(200, 0), Accept, false},
		{"two misses", plain, batch(200, 2), Accept, false},
		{"alarming", plain, batch(200, 40), Alarm, false},
		{"semantic, clean", vocab, semantic(0, 0), Accept, true},
		{"semantic, alarming on domain-only failures", vocab, semantic(30, 0), Alarm, true},
		{"semantic, alarming on both", vocab, semantic(12, 25), Alarm, true},
	} {
		bytesVals := make([][]byte, len(tc.vals))
		for i, v := range tc.vals {
			bytesVals[i] = []byte(v)
		}
		want, err := strEngine.Check(tc.st, tc.vals)
		if err != nil {
			t.Fatal(err)
		}
		got, err := byteEngine.CheckBytes(tc.st, bytesVals)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: CheckBytes and Check diverge:\n%+v\n%+v", tc.name, got, want)
		}
		wv := want.Verdict
		if wv.Action != tc.wantAction {
			t.Errorf("%s: action %s, want %s", tc.name, wv.Action, tc.wantAction)
		}
		if alarmed := wv.Action != Accept; alarmed && wv.NonConforming > 0 && wv.Attribution == nil {
			t.Errorf("%s: alarming batch with misses carries no attribution", tc.name)
		}
		if tc.wantDomain != (wv.Domain != "") {
			t.Errorf("%s: verdict domain %q", tc.name, wv.Domain)
		}
	}
	// The semantic rows really exercise the fields they compare.
	dec, err := NewEngine(DefaultPolicy()).Check(vocab, semantic(12, 25))
	if err != nil {
		t.Fatal(err)
	}
	if v := dec.Verdict; v.NonConforming != 25 || v.DomainInvalid != 37 || v.DomainOnlyInvalid != 12 ||
		len(v.DomainExamples) != maxDomainExamples || v.Attribution == nil {
		t.Errorf("semantic verdict %+v: want 25 misses, 37 domain-invalid, 12 domain-only, %d examples, an attribution",
			v, maxDomainExamples)
	}
}

func TestCheckBytesEmptyAndNilRule(t *testing.T) {
	e := NewEngine(DefaultPolicy())
	if _, err := e.CheckBytes(stream("s", fourDigitRule(t, 0.01, 0.01), false), nil); err == nil {
		t.Error("empty byte batch must error")
	}
	if _, err := e.CheckBytes(registry.Stream{Name: "s"}, [][]byte{[]byte("1234")}); err == nil {
		t.Error("nil rule must error")
	}
}
