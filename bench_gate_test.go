package autovalidate_test

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
)

// gateExact are the repository benchmark's columns that a traced run
// reproduces exactly — counts and ratios of work, not of time — so any
// move in one is a change in what the program does.
var gateExact = []string{
	"index.patterns", "index.delta_bytes", "pattern.candidates_per_column", "index.lookup_hit_ratio",
	"core.no_rule_ratio", "pattern.dfa_value_share", "validate.batch_allocs_per_op", "monitor.check_allocs_per_op",
	"cluster.follower_snapshots", "cluster.gateway_failovers", "loadgen.error_ratio", "monitor.nonaccept_ratio",
}

// gateTolerance are the columns a traced run reproduces to within a
// fraction of the record — allocation counts, which the runtime's
// background work and the schedule's timing move a little — with that
// fraction, and the prefix of the workloads it is held on ("" for all).
// Five traced seed-3 runs of one tree (2 s each, on a 2-vCPU Xeon VM)
// spread by at most 0.66 % on any column where it is held
// (process.allocs_per_op on infer_ingest).
var gateTolerance = []struct {
	name     string
	tol      float64
	workload string
}{
	{"core.infer_allocs_per_column", 0.01, ""},
	{"service.handler_allocs_per_op", 0.01, "check_"},
	{"service.handler_bytes_per_op", 0.01, "check_"},
	{"process.allocs_per_op", 0.02, ""},
}

// TestBenchGate holds one traced run of the repository benchmark — its
// last line in AV_BENCH_LINE, its workload in AV_BENCH_WORKLOAD — to the
// committed record BENCH_<workload>.json: the run checked out, each
// column of gateExact equals the record's last traced change line, each
// of gateTolerance is within its fraction of it, and
// loadgen.self_sum_ratio (the layers' self times over the end-to-end
// time) is within [0.9, 1.1]. Timed columns are not compared. A change
// that moves an exact or a tolerance column records the new value in the
// same change.
// It skips when either variable is unset:
//
//	line="$(bash benchmark/run.sh --workload infer_ingest --seed 3 --seconds 2 --trace 1 | tail -n 1)"
//	AV_BENCH_WORKLOAD=infer_ingest AV_BENCH_LINE="$line" go test -run TestBenchGate .
func TestBenchGate(t *testing.T) {
	raw, workload := os.Getenv("AV_BENCH_LINE"), os.Getenv("AV_BENCH_WORKLOAD")
	if raw == "" || workload == "" {
		t.Skip("AV_BENCH_LINE and AV_BENCH_WORKLOAD name no traced run")
	}
	var line benchLine
	if err := json.Unmarshal([]byte(raw), &line); err != nil {
		t.Fatalf("AV_BENCH_LINE is not a benchmark line: %v", err)
	}
	if !line.Correct || line.Failed != 0 || line.Attempted == 0 {
		t.Fatalf("the run reads correct %v, failed %d of %d attempted", line.Correct, line.Failed, line.Attempted)
	}
	b, err := os.ReadFile(fmt.Sprintf("BENCH_%s.json", workload))
	if err != nil {
		t.Fatal(err)
	}
	var rec benchRecord
	if err := json.Unmarshal(b, &rec); err != nil {
		t.Fatal(err)
	}
	if len(rec.Traced) == 0 {
		t.Fatalf("BENCH_%s.json has no traced line", workload)
	}
	want := rec.Traced[len(rec.Traced)-1].Change.Metrics
	for _, name := range gateExact {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: the record's traced change line has no value", name)
			continue
		}
		if g, ok := line.Metrics[name]; !ok || g.Value != w.Value {
			t.Errorf("%s: the run reads %v (present %v), the record %v", name, g.Value, ok, w.Value)
		}
	}
	for _, c := range gateTolerance {
		if !strings.HasPrefix(workload, c.workload) {
			continue
		}
		w, ok := want[c.name]
		if !ok {
			t.Errorf("%s: the record's traced change line has no value", c.name)
			continue
		}
		if g, ok := line.Metrics[c.name]; !ok || math.Abs(g.Value-w.Value) > c.tol*math.Abs(w.Value) {
			t.Errorf("%s: the run reads %v (present %v), the record %v ± %g %%", c.name, g.Value, ok, w.Value, 100*c.tol)
		}
	}
	if r, ok := line.Metrics["loadgen.self_sum_ratio"]; !ok || r.Value < 0.9 || r.Value > 1.1 {
		t.Errorf("loadgen.self_sum_ratio: the run reads %v (present %v), want within [0.9, 1.1]", r.Value, ok)
	}
}
