package validate

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"autovalidate/internal/pattern"
	"autovalidate/internal/stats"
	"autovalidate/internal/tokens"
)

// timestampRule mirrors the inferred pattern for a timestamp column —
// the workload the ISSUE benchmarks batch validation on.
func timestampRule() *Rule {
	return &Rule{
		Pattern: pattern.New(
			pattern.ClassN(tokens.ClassDigit, 4), pattern.Lit("-"),
			pattern.ClassN(tokens.ClassDigit, 2), pattern.Lit("-"),
			pattern.ClassN(tokens.ClassDigit, 2), pattern.Lit(" "),
			pattern.ClassN(tokens.ClassDigit, 2), pattern.Lit(":"),
			pattern.ClassN(tokens.ClassDigit, 2), pattern.Lit(":"),
			pattern.ClassN(tokens.ClassDigit, 2), pattern.Lit("."),
			pattern.ClassN(tokens.ClassDigit, 6),
		),
		TrainTotal: 10000,
		Test:       stats.Fisher,
		Alpha:      0.01,
		Strategy:   "FMDV",
	}
}

func timestampBatch(n int, garbageEvery int) [][]byte {
	rng := rand.New(rand.NewSource(21))
	out := make([][]byte, n)
	for i := range out {
		if garbageEvery > 0 && i%garbageEvery == 0 {
			out[i] = []byte("not a timestamp")
			continue
		}
		out[i] = []byte(fmt.Sprintf("2021-%02d-%02d %02d:%02d:%02d.%06d",
			1+rng.Intn(12), 1+rng.Intn(28), rng.Intn(24), rng.Intn(60), rng.Intn(60), rng.Intn(1000000)))
	}
	return out
}

func toBytes(vals []string) [][]byte {
	out := make([][]byte, len(vals))
	for i, v := range vals {
		out[i] = []byte(v)
	}
	return out
}

// TestValidateBatchMatchesValidate is the front-agreement check: the
// string front and the byte-slice front share one body, so on identical
// inputs — clean, lightly dirty and alarming — they must produce the
// same report, examples in the same order.
func TestValidateBatchMatchesValidate(t *testing.T) {
	for _, tc := range []struct {
		name      string
		garbage   int
		wantAlarm bool
	}{
		{"clean", 0, false},
		{"every tenth value garbage", 10, true},
		{"alarming: every third value garbage", 3, true},
	} {
		r := timestampRule()
		batch := timestampBatch(500, tc.garbage)
		strs := make([]string, len(batch))
		for i, b := range batch {
			strs[i] = string(b)
		}
		want, err := r.Validate(strs)
		if err != nil {
			t.Fatal(err)
		}
		if want.Alarm != tc.wantAlarm {
			t.Errorf("%s: Alarm = %v, want %v (%s)", tc.name, want.Alarm, tc.wantAlarm, want)
		}
		rep := AcquireBatchReport()
		if err := r.ValidateBatch(batch, rep); err != nil {
			t.Fatal(err)
		}
		if got := rep.Report(batch); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: ValidateBatch %+v != Validate %+v", tc.name, got, want)
		}
		if got := rep.Examples(batch); !reflect.DeepEqual(got, want.Examples) {
			t.Errorf("%s: examples %q != %q", tc.name, got, want.Examples)
		}
		rep.Release()
	}
}

func TestValidateBatchEmpty(t *testing.T) {
	var rep BatchReport
	if err := timestampRule().ValidateBatch(nil, &rep); !errors.Is(err, ErrEmptyBatch) {
		t.Errorf("empty batch: got %v, want ErrEmptyBatch", err)
	}
	if err := timestampRule().ValidateBatch(timestampBatch(5, 0), nil); err == nil {
		t.Error("nil report must be rejected")
	}
}

func TestValidateBatchReportReuse(t *testing.T) {
	r := timestampRule()
	rep := AcquireBatchReport()
	defer rep.Release()
	if err := r.ValidateBatch(timestampBatch(100, 2), rep); err != nil {
		t.Fatal(err)
	}
	if rep.NonConforming == 0 || len(rep.ExampleIndexes()) == 0 {
		t.Fatalf("dirty batch should record non-conformers: %+v", rep)
	}
	// Reuse on a clean batch must fully overwrite the previous outcome.
	if err := r.ValidateBatch(timestampBatch(100, 0), rep); err != nil {
		t.Fatal(err)
	}
	if rep.NonConforming != 0 || rep.Alarm || len(rep.ExampleIndexes()) != 0 {
		t.Errorf("reused report kept stale state: %+v", rep)
	}
}

// TestValidateBatchZeroAllocs is the tentpole's steady-state guarantee:
// once the rule's program is compiled and the report acquired, a batch
// of values validates with zero heap allocations.
func TestValidateBatchZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop puts; alloc counts are meaningless")
	}
	r := timestampRule()
	r.Precompile()
	batch := timestampBatch(1000, 7)
	rep := AcquireBatchReport()
	defer rep.Release()
	// Warm the report's example-index capacity and the program's scratch
	// pool before measuring.
	if err := r.ValidateBatch(batch, rep); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := r.ValidateBatch(batch, rep); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("ValidateBatch steady state: %.1f allocs per 1000-value batch, want 0", allocs)
	}
	// The string front pools its report, so a clean batch (no example
	// strings to return) allocates nothing either.
	clean := timestampBatch(1000, 0)
	strs := make([]string, len(clean))
	for i, b := range clean {
		strs[i] = string(b)
	}
	allocs = testing.AllocsPerRun(20, func() {
		if _, err := r.Validate(strs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Validate on a clean batch: %.1f allocs per 1000-value batch, want 0", allocs)
	}
}

// TestValidateBatchZeroAllocsNFAMode repeats the allocation guarantee
// for a rule whose pattern is too large to determinize, exercising the
// pooled pike-VM path.
func TestValidateBatchZeroAllocsNFAMode(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop puts; alloc counts are meaningless")
	}
	r := &Rule{
		Pattern:    pattern.New(pattern.ClassRange(tokens.ClassDigit, 0, 5000)),
		TrainTotal: 100,
		Test:       stats.Fisher,
		Alpha:      0.01,
	}
	if r.Program().Mode() != "nfa" {
		t.Skip("pattern unexpectedly determinized; NFA path not exercised")
	}
	batch := make([][]byte, 200)
	for i := range batch {
		batch[i] = []byte(strings.Repeat("7", 40+i%20))
	}
	rep := AcquireBatchReport()
	defer rep.Release()
	if err := r.ValidateBatch(batch, rep); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := r.ValidateBatch(batch, rep); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("NFA-mode ValidateBatch steady state: %.1f allocs per batch, want 0", allocs)
	}
}

// TestFlagsPropagatesStatsError is the satellite regression test: a rule
// whose training statistics form an invalid contingency table must not
// have its error swallowed into "no alarm".
func TestFlagsPropagatesStatsError(t *testing.T) {
	r := timestampRule()
	r.TrainNonConforming = r.TrainTotal + 1 // invalid: more failures than rows
	if _, err := r.Validate([]string{"2021-01-01 00:00:00.000000"}); err == nil {
		t.Fatal("invalid training table should error from Validate")
	}
	if !r.Flags([]string{"2021-01-01 00:00:00.000000"}) {
		t.Error("a stats failure must flag the batch, not silently clear it")
	}
	// The empty-batch case stays quiet: nothing arrived, nothing to flag.
	if r.Flags(nil) {
		t.Error("empty batch must not flag")
	}
}

// TestValidateColumnsDeterministic is the satellite determinism test:
// report order must not depend on map-iteration order.
func TestValidateColumnsDeterministic(t *testing.T) {
	rs := NewRuleSet()
	cols := map[string][]string{}
	digitRule := func() *Rule {
		return &Rule{
			Pattern:    pattern.New(pattern.ClassPlus(tokens.ClassDigit)),
			TrainTotal: 1000,
			Test:       stats.Fisher,
			Alpha:      0.01,
		}
	}
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("col%02d", i)
		rs.Add(name, digitRule())
		vals := make([]string, 200)
		for j := range vals {
			vals[j] = "12345"
		}
		if i%3 == 0 { // every third column drifts hard → alarms
			for j := 0; j < 100; j++ {
				vals[j] = "xxx"
			}
		}
		cols[name] = vals
	}
	first := rs.ValidateColumns(cols)
	for trial := 0; trial < 5; trial++ {
		got := rs.ValidateColumns(cols)
		for i := range got {
			if got[i].Column != first[i].Column {
				t.Fatalf("trial %d: order differs at %d: %s vs %s", trial, i, got[i].Column, first[i].Column)
			}
		}
	}
	// Alarms first, each group sorted by name.
	boundary := 0
	for boundary < len(first) && first[boundary].Report.Alarm {
		boundary++
	}
	for i := boundary; i < len(first); i++ {
		if first[i].Report.Alarm {
			t.Fatalf("alarm at %d after non-alarm boundary %d", i, boundary)
		}
	}
	alarms := first[:boundary]
	quiet := first[boundary:]
	if len(alarms) != 4 {
		t.Fatalf("expected 4 alarming columns, got %d", len(alarms))
	}
	for _, grp := range [][]ColumnReport{alarms, quiet} {
		if !sort.SliceIsSorted(grp, func(i, j int) bool { return grp[i].Column < grp[j].Column }) {
			t.Fatalf("group not name-sorted: %+v", grp)
		}
	}
}

func TestRulePersistResetsProgram(t *testing.T) {
	r := timestampRule()
	prog := r.Program()
	if prog == nil {
		t.Fatal("no program")
	}
	data, err := r.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	fresh := r.Program()
	if fresh == prog {
		t.Error("UnmarshalJSON must drop the cached program (pattern may have changed)")
	}
	if !fresh.MatchString("2021-01-01 00:00:00.000000") {
		t.Error("recompiled program does not match")
	}
}

// BenchmarkValidateBatch is the batch kernel under both fronts, over
// the timestamp workload.
func BenchmarkValidateBatch(b *testing.B) {
	r := timestampRule()
	r.Precompile()
	batch := timestampBatch(1000, 0)
	rep := AcquireBatchReport()
	defer rep.Release()
	b.SetBytes(int64(len(batch)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.ValidateBatch(batch, rep); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(batch))*float64(b.N)/b.Elapsed().Seconds(), "values/s")
}

// ExampleIndexes returns the batch indexes of the retained
// non-conforming examples. The slice is owned by the report and only
// valid until the next Reset/ValidateBatch.
func (rep *BatchReport) ExampleIndexes() []int { return rep.exampleIdx }
