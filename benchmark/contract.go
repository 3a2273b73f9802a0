package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// contractFile is BENCHMARK.json, relative to the repository root the
// benchmark is run from. It is the one place the workloads' names, the
// metrics' names, units and directions, the end-to-end bounds and the
// window's length are declared: the program reads them from it, so the
// file and the program cannot disagree.
const contractFile = "BENCHMARK.json"

// metricDef declares one reported metric. Bound is the share of the
// parent's median an end-to-end metric may worsen by; per-layer metrics
// have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// contract is the part of BENCHMARK.json the program uses.
type contract struct {
	// RunSeconds is the measured window the driver asks for. The issue
	// sized 3 s + 30 s; the cap on all runs together (92 runs and two
	// builds in 3420 s) leaves about 36 s per run, set-up thrice over
	// included, so every workload's window is shortened alike.
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	// EndToEnd are what a caller of the cluster sees; every workload
	// reports every one of them. PerLayer are read from the traced run;
	// the layer is the package name before the dot, and a layer that is
	// not on a workload's path reports a self time of 0 there.
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadContract(path string) (*contract, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the contract: %w", err)
	}
	var ct contract
	if err := json.Unmarshal(raw, &ct); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(ct.Workloads) != len(specs) {
		return nil, fmt.Errorf("%s names %d workloads, the program has %d", path, len(ct.Workloads), len(specs))
	}
	for i, w := range ct.Workloads {
		if w.Name != specs[i].name {
			return nil, fmt.Errorf("%s names workload %q where the program has %q", path, w.Name, specs[i].name)
		}
	}
	return &ct, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// newResult attaches units to values, insisting that exactly the
// declared metrics were produced.
func newResult(defs []metricDef, values map[string]float64) (*result, error) {
	r := &result{Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is declared in %s but was not measured", d.Name, contractFile)
		}
		r.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	for name := range values {
		if _, ok := r.Metrics[name]; !ok {
			return nil, fmt.Errorf("metric %s is measured but not declared in %s", name, contractFile)
		}
	}
	return r, nil
}
