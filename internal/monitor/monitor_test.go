package monitor

import (
	"fmt"
	"math"
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

// TestSmallBatchesAccepted pins both sides of minBatch: an all
// non-conforming batch one value short of it is accepted outright, one
// of exactly minBatch values alarms.
func TestSmallBatchesAccepted(t *testing.T) {
	e := NewEngine(DefaultPolicy())
	rule := fourDigitRule(t, 0.01, 1e-300)
	dec, err := e.Check(stream("tiny", rule, false), batch(minBatch-1, minBatch-1))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Verdict.Action != Accept {
		t.Errorf("%d/%d non-conforming: action %v, want accept", minBatch-1, minBatch-1, dec.Verdict.Action)
	}
	dec, err = e.Check(stream("small", rule, false), batch(minBatch, minBatch))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Verdict.Action != Alarm {
		t.Errorf("%d/%d non-conforming: action %v, want alarm", minBatch, minBatch, dec.Verdict.Action)
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
	e := NewEngine(DefaultPolicy())
	rule := fourDigitRule(t, 0.05, 1e-300)
	s := stream("ring", rule, false)
	const over = 6
	for i := 0; i < window+over; i++ {
		if _, err := e.Check(s, batch(50, i%2)); err != nil {
			t.Fatal(err)
		}
	}
	h, _ := e.History("ring")
	if len(h.Window) != window {
		t.Fatalf("window holds %d verdicts, want %d", len(h.Window), window)
	}
	for i, v := range h.Window {
		if want := over + 1 + i; v.Seq != want {
			t.Errorf("window[%d].Seq = %d, want %d (oldest-first)", i, v.Seq, want)
		}
	}
	if n := window + over; h.Batches != n || h.Values != 50*n || h.NonConforming != n/2 {
		t.Errorf("totals = %d/%d/%d, want %d/%d/%d", h.Batches, h.Values, h.NonConforming, n, 50*n, n/2)
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

// mixed builds a 200-value batch: the first len(bad) values cycle
// through bad, the rest through good.
func mixed(n int, good, bad []string) []string {
	out := make([]string, 200)
	for i := range out {
		if i < n {
			out[i] = bad[i%len(bad)]
		} else {
			out[i] = good[i%len(good)]
		}
	}
	return out
}

// TestCheckBytesMatchesCheck is the front-agreement check: the string
// front and the byte-slice front share one body, so identical batches
// (on separate engines, so both see the same history) must produce
// identical decisions — counts, examples in order, rolling state, the
// semantic-domain fields and the attribution of an alarming batch. The
// date and ipv4 rows also run on a third engine whose validators are
// the string oracles (time.Parse, net/netip), which must decide the
// same.
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
	dates := domainStream(t, "<digit>{4}-<digit>{2}-<digit>{2}", "date")
	goodDates := []string{"2021-02-28", "2024-02-29", "1999-12-31", "2000-02-29", "1200-01-01"}
	// Feb 30, month 13, year 1100, Feb 29 off a leap year: well-formed,
	// not dates; then a value the pattern rejects too.
	badDates := []string{"2021-02-30", "2021-13-01", "1100-06-15", "1900-02-29", "21-01-2021"}
	ips := domainStream(t, "<digit>+.<digit>+.<digit>+.<digit>+", "ipv4")
	goodIPs := []string{"10.0.0.1", "192.168.0.254", "255.255.255.255", "0.0.0.0", "8.8.4.4"}
	// Octet 256, leading zeros (inet_aton octal), then non-addresses.
	badIPs := []string{"256.1.1.1", "192.168.001.001", "10.00.0.1", "1.2.3.4.5", "1.2.3"}
	strEngine, byteEngine := NewEngine(DefaultPolicy()), NewEngine(DefaultPolicy())
	oracleEngine := NewEngine(DefaultPolicy())
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
		{"date, clean", dates, mixed(0, goodDates, badDates), Accept, true},
		{"date, one bad value", dates, mixed(1, goodDates, badDates), Accept, true},
		{"date, calendar failures", dates, mixed(40, goodDates, badDates), Alarm, true},
		{"ipv4, clean", ips, mixed(0, goodIPs, badIPs), Accept, true},
		{"ipv4, octet and leading-zero failures", ips, mixed(40, goodIPs, badIPs), Alarm, true},
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
		ost := tc.st
		ost.Domain.Name = oracleName(t, tc.st.Domain.Name)
		odec, err := oracleEngine.Check(ost, tc.vals)
		if err != nil {
			t.Fatal(err)
		}
		odec.Verdict.Domain = want.Verdict.Domain
		if !reflect.DeepEqual(odec, want) {
			t.Errorf("%s: the byte validators and the oracles diverge:\n%+v\n%+v", tc.name, want, odec)
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
	for _, tc := range []struct {
		st                          registry.Stream
		vals                        []string
		misses, invalid, domainOnly int
		firstExample                string
	}{
		{dates, mixed(40, goodDates, badDates), 8, 40, 32, "2021-02-30"},
		{ips, mixed(40, goodIPs, badIPs), 16, 40, 24, "256.1.1.1"},
	} {
		dec, err := NewEngine(DefaultPolicy()).Check(tc.st, tc.vals)
		if err != nil {
			t.Fatal(err)
		}
		if v := dec.Verdict; v.NonConforming != tc.misses || v.DomainInvalid != tc.invalid ||
			v.DomainOnlyInvalid != tc.domainOnly || len(v.DomainExamples) != maxDomainExamples ||
			v.DomainExamples[0] != tc.firstExample {
			t.Errorf("%s verdict %+v: want %d misses, %d domain-invalid, %d domain-only, examples from %q",
				tc.st.Domain.Name, v, tc.misses, tc.invalid, tc.domainOnly, tc.firstExample)
		}
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

// A verdict's RateLo is stats.ClopperPearson's lower bound, bit for
// bit, k = 0 and k = n included.
func TestRateLoIsClopperPearsonLower(t *testing.T) {
	e := NewEngine(DefaultPolicy())
	s := stream("s", fourDigitRule(t, 0.01, 0), false)
	for _, c := range []struct{ k, n int }{
		{0, 0}, {0, 1}, {0, 8}, {0, 50}, {0, 20000},
		{1, 1}, {1, 8}, {3, 50}, {50, 50}, {100, 2000},
		{999, 1000}, {7, 20000}, {20000, 20000},
	} {
		v := Verdict{Total: c.n, NonConforming: c.k}
		e.score(s, &v, false)
		lo, _ := stats.ClopperPearson(c.k, c.n, confidence)
		if math.Float64bits(v.RateLo) != math.Float64bits(lo) {
			t.Errorf("k %d, n %d: RateLo %v, ClopperPearson lo %v", c.k, c.n, v.RateLo, lo)
		}
	}
}

// SameRule tells a rule the drift test reads differently from one it
// reads alike, whatever the version number says.
func TestSameRule(t *testing.T) {
	base := stream("s", fourDigitRule(t, 0.01, 0.01), false)
	with := func(edit func(*registry.Stream, *validate.Rule)) registry.Stream {
		s := base
		s.Rule = fourDigitRule(t, 0.01, 0.01)
		edit(&s, s.Rule)
		return s
	}
	other, err := pattern.Parse("<letter>{4}")
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		b    registry.Stream
		same bool
	}{
		"copy":          {with(func(*registry.Stream, *validate.Rule) {}), true},
		"stale":         {with(func(s *registry.Stream, _ *validate.Rule) { s.Stale = true }), true},
		"generation":    {with(func(s *registry.Stream, _ *validate.Rule) { s.IndexGeneration = 9 }), true},
		"version":       {with(func(s *registry.Stream, _ *validate.Rule) { s.Version = 2 }), false},
		"pattern":       {with(func(_ *registry.Stream, r *validate.Rule) { r.Pattern = other }), false},
		"fpr":           {with(func(_ *registry.Stream, r *validate.Rule) { r.EstimatedFPR = 0.02 }), false},
		"train counts":  {with(func(_ *registry.Stream, r *validate.Rule) { r.TrainNonConforming = 1 }), false},
		"train total":   {with(func(_ *registry.Stream, r *validate.Rule) { r.TrainTotal = 999 }), false},
		"test alpha":    {with(func(_ *registry.Stream, r *validate.Rule) { r.Alpha = 0.05 }), false},
		"domain":        {with(func(s *registry.Stream, _ *validate.Rule) { s.Domain.Name = "ipv4" }), false},
		"domain vocab":  {with(func(s *registry.Stream, _ *validate.Rule) { s.Domain.Vocab = []string{"a"} }), false},
		"domain counts": {with(func(s *registry.Stream, _ *validate.Rule) { s.Domain.Confidence = 0.95 }), true},
	} {
		if got := SameRule(base, c.b); got != c.same {
			t.Errorf("%s: SameRule = %v, want %v", name, got, c.same)
		}
	}
}
