// Command benchmark is the repository's benchmark: it stands up the
// real cluster (gateway → leader + follower) in this process on
// loopback HTTP, drives one workload against it from generated inputs,
// checks every answer, and prints the metrics BENCHMARK.json declares.
//
//	go run ./benchmark -workload check_large -seed 1              # end-to-end metrics
//	go run ./benchmark -workload check_large -seed 1 -trace 1     # per-layer metrics + benchmark/out/trace-check_large.jsonl
//	go run ./benchmark -aa                                        # two sets of every workload, compared against the bounds
//
// Run it from the repository root. The last line of standard output is
// the result as one JSON object; a readable listing goes to standard
// error. See README.md beside this file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// outDir holds trace files and, while a run lasts, its journals and
// registries; benchmark/.gitignore names it.
var outDir = filepath.Join("benchmark", "out")

func main() {
	workload := flag.String("workload", "", "workload to run: check_large, check_small, check_drift or infer_ingest")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same requests")
	seconds := flag.Int("seconds", 0, "length of the measured window; 0 means BENCHMARK.json's run_seconds")
	trace := flag.Int("trace", 0, "1 runs the traced replay and prints the per-layer metrics instead of the end-to-end ones")
	aa := flag.Bool("aa", false, "run two sets of every workload on this build and compare them against the bounds")
	flag.Parse()

	ct, err := loadContract(contractFile)
	if err == nil {
		if *seconds == 0 {
			*seconds = ct.RunSeconds
		}
		if *aa {
			err = runAA(ct, *seconds)
		} else {
			err = runOne(ct, *workload, *seed, *seconds, *trace == 1)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func runOne(ct *contract, workload string, seed int64, seconds int, traced bool) error {
	sp, ok := specByName(workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	if err := pinToOneCPU(); err != nil {
		return err
	}
	var res *result
	err := withRunDir(outDir, func(dir string) error {
		// A signal must not leave the run directory behind.
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-sig
			_ = os.RemoveAll(dir)
			os.Exit(1)
		}()
		var err error
		res, err = run(runConfig{
			contract: ct,
			spec:     sp,
			seed:     seed,
			window:   time.Duration(seconds) * time.Second,
			traced:   traced,
			dir:      dir,
			traceOut: filepath.Join(outDir, "trace-"+sp.name+".jsonl"),
		})
		return err
	})
	if err != nil {
		return err
	}
	printListing(res)
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	fmt.Println(string(line))
	return nil
}

// printListing writes every metric by name with its unit to standard
// error, then the share of the request each layer's self time is.
func printListing(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(os.Stderr, "%-36s %14.4f %s\n", name, m.Value, m.Unit)
	}
	fmt.Fprintf(os.Stderr, "attempted %d, failed %d, correct %t\n", res.Attempted, res.Failed, res.Correct)
	if _, traced := res.Metrics["loadgen.self_sum_ratio"]; !traced {
		return
	}
	var total float64
	for _, name := range allDepths {
		total += res.Metrics[name+"_self_ms"].Value
	}
	fmt.Fprintln(os.Stderr, "\n| layer | self ms | share |\n|---|---:|---:|")
	for _, name := range allDepths {
		if v := res.Metrics[name+"_self_ms"].Value; v != 0 {
			fmt.Fprintf(os.Stderr, "| %s | %.4f | %.1f %% |\n", name, v, 100*v/total)
		}
	}
}
