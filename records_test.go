package autovalidate_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// benchRecord is a committed BENCH_<exp>.json: what produced it, on what
// host, and its numbers for the parent commit and the change — go test
// benchmark columns per benchmark (runs), or the repository benchmark's
// last output lines, one pair of runs at a time (pairs).
type benchRecord struct {
	Experiment string `json:"experiment"`
	Command    string `json:"command"`
	Host       struct {
		Nproc int    `json:"nproc"`
		CPU   string `json:"cpu"`
		Go    string `json:"go"`
		Note  string `json:"note"`
	} `json:"host"`
	Runs []struct {
		Tree       string                        `json:"tree"`
		Commit     string                        `json:"commit"`
		Benchmarks map[string]map[string]float64 `json:"benchmarks"`
	} `json:"runs"`
	Pairs []struct {
		Seed   int       `json:"seed"`
		First  string    `json:"first"`
		Parent benchLine `json:"parent"`
		Change benchLine `json:"change"`
	} `json:"pairs"`
	Traced []struct {
		Seed   int       `json:"seed"`
		Parent benchLine `json:"parent"`
		Change benchLine `json:"change"`
	} `json:"traced"`
	Wins map[string]string `json:"wins"`
}

// benchLine is the last line the repository benchmark prints.
type benchLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// goBenchColumns are the columns of `go test -bench -benchmem` output.
var goBenchColumns = map[string]bool{"ns/op": true, "B/op": true, "allocs/op": true}

// Every committed benchmark record parses with no field unknown, names
// only metrics BENCHMARK.json declares or go test benchmark columns, and
// holds only runs that checked out: correct, with nothing failed.
func TestBenchRecordsWellFormed(t *testing.T) {
	declared := map[string]bool{}
	{
		var spec struct {
			EndToEnd []struct{ Name string } `json:"end_to_end"`
			PerLayer []struct{ Name string } `json:"per_layer"`
		}
		b, err := os.ReadFile("BENCHMARK.json")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, &spec); err != nil {
			t.Fatal(err)
		}
		for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
			declared[m.Name] = true
		}
	}
	files, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no BENCH_*.json record")
	}
	for _, file := range files {
		b, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		var rec benchRecord
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&rec); err != nil {
			t.Errorf("%s: %v", file, err)
			continue
		}
		if rec.Experiment == "" || rec.Command == "" || rec.Host.Nproc == 0 || rec.Host.CPU == "" {
			t.Errorf("%s: experiment, command, host nproc and CPU are required", file)
		}
		if len(rec.Runs)+len(rec.Pairs)+len(rec.Traced) == 0 {
			t.Errorf("%s: no runs, pairs or traced runs", file)
		}
		for _, run := range rec.Runs {
			if run.Tree == "" || run.Commit == "" || len(run.Benchmarks) == 0 {
				t.Errorf("%s: a run needs its tree, commit and benchmarks", file)
			}
			for name, cols := range run.Benchmarks {
				for col := range cols {
					if !goBenchColumns[col] {
						t.Errorf("%s: %s %s: %q is not a benchmark column", file, run.Tree, name, col)
					}
				}
			}
		}
		var lines []benchLine
		for _, p := range rec.Pairs {
			lines = append(lines, p.Parent, p.Change)
		}
		for _, p := range rec.Traced {
			lines = append(lines, p.Parent, p.Change)
		}
		for i, line := range lines {
			if !line.Correct || line.Failed != 0 || line.Attempted == 0 {
				t.Errorf("%s: line %d reads correct %v, failed %d of %d attempted", file, i, line.Correct, line.Failed, line.Attempted)
			}
			for name := range line.Metrics {
				if !declared[name] {
					t.Errorf("%s: line %d: metric %q is not in BENCHMARK.json", file, i, name)
				}
			}
		}
		for name := range rec.Wins {
			if !declared[name] {
				t.Errorf("%s: wins of %q, which BENCHMARK.json does not declare", file, name)
			}
		}
	}
}
