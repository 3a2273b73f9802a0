package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// aaRuns is the number of runs (seeds 1 to aaRuns) per workload in each
// set, as many as the driver makes.
const aaRuns = 10

// runAA measures the same build twice and judges the benchmark by its
// own bounds, as the driver will: per workload and end-to-end metric,
// each set's median over its seeds, the spread between quartiles as a
// share of the median, and how much worse the second median is than the
// first. Every run is a process of its own, so peak_rss_mb is one
// run's. It fails when a spread or a difference exceeds the metric's
// bound (set-up's spread is exempt: its inputs grow with the seed).
func runAA(ct *contract, seconds int) error {
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locating this binary: %w", err)
	}
	// values[set][workload][metric] are one set's runs.
	var values [2]map[string]map[string][]float64
	for set := range values {
		values[set] = map[string]map[string][]float64{}
		for _, sp := range specs {
			values[set][sp.name] = map[string][]float64{}
			for seed := int64(1); seed <= aaRuns; seed++ {
				res, err := runChild(self, sp.name, seed, seconds)
				if err != nil {
					return fmt.Errorf("set %d, %s, seed %d: %w", set+1, sp.name, seed, err)
				}
				if !res.Correct {
					return fmt.Errorf("set %d, %s, seed %d: %d of %d operations failed", set+1, sp.name, seed, res.Failed, res.Attempted)
				}
				for name, m := range res.Metrics {
					values[set][sp.name][name] = append(values[set][sp.name][name], m.Value)
				}
				fmt.Fprintf(os.Stderr, "set %d %s seed %d done\n", set+1, sp.name, seed)
			}
		}
	}
	fmt.Printf("%-13s %-15s %12s %12s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "median A", "median B", "spread A", "spread B", "B worse", "bound", "verdict")
	failed := 0
	for _, sp := range specs {
		for _, d := range ct.EndToEnd {
			a, b := values[0][sp.name][d.Name], values[1][sp.name][d.Name]
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if d.Better == "higher" {
				worse = -worse
			}
			sa, sb := quartileSpread(a), quartileSpread(b)
			verdict := "ok"
			if worse > d.Bound || (d.Name != "setup_s" && (sa > d.Bound || sb > d.Bound)) {
				verdict = "EXCEEDS"
				failed++
			}
			fmt.Printf("%-13s %-15s %12.4f %12.4f %7.1f%% %7.1f%% %+7.1f%% %5.0f%%  %s\n",
				sp.name, d.Name, ma, mb, 100*sa, 100*sb, 100*worse, 100*d.Bound, verdict)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d workload × metric pairs exceed their bound", failed)
	}
	return nil
}

// runChild runs one untraced workload run in a process of its own and
// parses the result off its last line.
func runChild(self, workload string, seed int64, seconds int) (*result, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds), "-trace", "0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%w: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("parsing result: %w", err)
	}
	return &res, nil
}
