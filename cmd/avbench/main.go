// Command avbench regenerates the paper's tables and figures.
//
// With -json, each experiment also writes a machine-readable
// BENCH_<exp>.json record (throughput, latency quantiles, catch-up lag)
// under -outdir, for CI artifact archiving and trend tracking.
package main

import (
	"autovalidate/internal/buildinfo"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"autovalidate/internal/evalbench"
)

func main() {
	exp := flag.String("exp", "fig10a", "experiment id: table1|table2|table3|fig10a|fig10b|fig11|fig12a|fig12b|fig12c|fig12d|fig13|fig14|fig15|ingest|monitor|cluster|ablations|all")
	scale := flag.String("scale", "default", "default|quick")
	jsonOut := flag.Bool("json", false, "write a BENCH_<exp>.json record per experiment")
	outdir := flag.String("outdir", ".", "directory for -json records")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println("avbench", buildinfo.Get())
		return
	}

	cfg := evalbench.DefaultConfig()
	if *scale == "quick" {
		cfg = evalbench.QuickConfig()
	}
	start := time.Now()
	env := evalbench.NewEnv(cfg)
	fmt.Fprintf(os.Stderr, "env ready in %s (TE=%d cols idx=%d pats, TG=%d cols idx=%d pats)\n",
		time.Since(start).Round(time.Millisecond),
		env.TE.NumColumns(), env.IdxE.Size(), env.TG.NumColumns(), env.IdxG.Size())

	run := func(id string) {
		t0 := time.Now()
		rec := evalbench.BenchRecord{Experiment: id, Scale: *scale}
		switch id {
		case "table1":
			fmt.Println("=== Table 1: corpus characteristics ===")
			fmt.Print(evalbench.FormatTable1(env.Table1()))
		case "table2":
			fmt.Println("=== Table 2: programmatic vs ground truth (BE) ===")
			fmt.Print(evalbench.FormatTable2(env.Table2()))
		case "table3":
			fmt.Println("=== Table 3: user study ===")
			fmt.Print(evalbench.FormatTable3(env.Table3UserStudy(20)))
		case "fig10a":
			fmt.Println("=== Figure 10(a): Enterprise benchmark P/R ===")
			fmt.Print(evalbench.FormatFigure10(env.Figure10("BE")))
		case "fig10b":
			fmt.Println("=== Figure 10(b): Government benchmark P/R ===")
			fmt.Print(evalbench.FormatFigure10(env.Figure10("BG")))
		case "fig11":
			fmt.Println("=== Figure 11: case-by-case F1 (100 cases) ===")
			fmt.Print(evalbench.FormatFigure11(env.Figure11(100)))
		case "fig12a":
			fmt.Println("=== Figure 12(a): sensitivity to r ===")
			fmt.Print(evalbench.FormatSensitivity("r", env.Figure12a(nil)))
		case "fig12b":
			fmt.Println("=== Figure 12(b): sensitivity to m ===")
			fmt.Print(evalbench.FormatSensitivity("m", env.Figure12b(nil)))
		case "fig12c":
			fmt.Println("=== Figure 12(c): sensitivity to tau ===")
			fmt.Print(evalbench.FormatSensitivity("tau", env.Figure12c(nil)))
		case "fig12d":
			fmt.Println("=== Figure 12(d): sensitivity to theta ===")
			fmt.Print(evalbench.FormatSensitivity("theta", env.Figure12d(nil)))
		case "fig13":
			fmt.Println("=== Figure 13: index pattern distributions ===")
			fmt.Print(evalbench.FormatFigure13(env.Figure13Analysis()))
		case "fig14":
			fmt.Println("=== Figure 14: per-column latency ===")
			rows := env.Figure14Latency(30, 200)
			fmt.Print(evalbench.FormatFigure14(rows))
			for _, r := range rows {
				rec.AddMetric("avg_ms_"+metricKey(r.Method), r.AvgMillis)
			}
		case "fig15":
			fmt.Println("=== Figure 15: Kaggle schema-drift case study ===")
			rows, err := env.Figure15Kaggle()
			if err != nil {
				fmt.Fprintln(os.Stderr, "fig15:", err)
				os.Exit(1)
			}
			fmt.Print(evalbench.FormatFigure15(rows))
		case "ingest":
			fmt.Println("=== Incremental ingest vs full rebuild (TE + 1 table) ===")
			cmp := env.IngestComparison()
			fmt.Print(evalbench.FormatIngestComparison(cmp))
			rec.AddMetric("rebuild_millis", cmp.RebuildMillis)
			rec.AddMetric("ingest_millis", cmp.IngestMillis)
			rec.AddMetric("speedup", cmp.Speedup)
		case "monitor":
			fmt.Println("=== Continuous validation: day-by-day replay with injected drift ===")
			res := env.MonitorExperiment(evalbench.DefaultMonitorParams())
			fmt.Print(evalbench.FormatMonitor(res))
			rec.AddMetric("streams", float64(res.Streams))
			rec.AddMetric("detected", float64(res.Detected))
			rec.AddMetric("mean_detect_latency_batches", res.MeanLatency)
			rec.AddMetric("max_detect_latency_batches", float64(res.MaxLatency))
			rec.AddMetric("false_alarm_rate", res.FalseAlarmRate)
			if tp, err := env.ThroughputProbe(40, 250); err == nil {
				rec.ValuesPerSec = tp.ValuesPerSec
				rec.P50Millis = tp.P50Millis
				rec.P99Millis = tp.P99Millis
			} else {
				fmt.Fprintln(os.Stderr, "throughput probe:", err)
			}
		case "cluster":
			fmt.Println("=== Replicated cluster: gateway validate QPS (1 vs 3 replicas) and follower catch-up lag ===")
			measure := 2 * time.Second
			if *scale == "quick" {
				measure = 300 * time.Millisecond
			}
			res, err := env.ClusterExperiment(measure)
			if err != nil {
				fmt.Fprintln(os.Stderr, "cluster:", err)
				os.Exit(1)
			}
			fmt.Print(evalbench.FormatCluster(res))
			rec.CatchUpMillis = res.CatchUpMillis
			rec.AddMetric("validate_qps_1x", res.Replicas1QPS)
			rec.AddMetric("validate_qps_3x", res.Replicas3QPS)
			rec.AddMetric("replica_speedup", res.Speedup)
		case "ablations":
			fmt.Println("=== Ablations ===")
			fmt.Print(evalbench.FormatAblation("FMDV vs CMDV objective", env.AblationCMDV()))
			fmt.Print(evalbench.FormatAblation("sum vs max segment aggregation", env.AblationMaxAggregation()))
			fmt.Print(evalbench.FormatAblation("Fisher vs chi-squared drift test", env.AblationDriftTest()))
			fmt.Print(evalbench.FormatAblation("index support threshold", env.AblationIndexSupport()))
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", id)
			os.Exit(2)
		}
		rec.ElapsedSeconds = time.Since(t0).Seconds()
		fmt.Fprintf(os.Stderr, "[%s done in %s]\n\n", id, time.Since(t0).Round(time.Millisecond))
		if *jsonOut {
			path, err := rec.Write(*outdir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench record:", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
	}

	if *exp == "all" {
		for _, id := range []string{"table1", "fig10a", "fig10b", "table2", "fig11",
			"fig12a", "fig12b", "fig12c", "fig12d", "fig13", "fig14", "table3", "fig15", "ingest", "monitor", "cluster", "ablations"} {
			run(id)
		}
		return
	}
	run(*exp)
}

// metricKey lowercases a display label into a metric-name-safe key.
func metricKey(label string) string {
	var sb strings.Builder
	for _, r := range strings.ToLower(label) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			sb.WriteRune(r)
		default:
			if l := sb.Len(); l > 0 && sb.String()[l-1] != '_' {
				sb.WriteByte('_')
			}
		}
	}
	return strings.Trim(sb.String(), "_")
}
