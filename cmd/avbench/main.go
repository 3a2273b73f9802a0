// Command avbench regenerates the paper's §5 evaluation — Tables 1–3,
// Figures 10–15 and the ablations — on the synthetic lakes of
// internal/datagen. Each experiment prints its table to stdout; progress
// and timing go to stderr.
//
//	avbench -exp fig10a             one experiment at default scale
//	avbench -exp all -scale quick   every experiment on the small lakes
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"autovalidate/internal/buildinfo"
	"autovalidate/internal/evalbench"
)

// experiment is one table or figure of §5: the id -exp selects it by,
// the heading printed above it, and the routine that renders it.
type experiment struct {
	id, title string
	run       func(*evalbench.Env, io.Writer) error
}

// experiments lists every experiment once, in the order -exp all runs
// them; the flag help, the id check and dispatch all read it.
var experiments = []experiment{
	{"table1", "Table 1: corpus characteristics", text(func(e *evalbench.Env) string {
		return evalbench.FormatTable1(e.Table1())
	})},
	{"fig10a", "Figure 10(a): Enterprise benchmark P/R", text(func(e *evalbench.Env) string {
		return evalbench.FormatFigure10(e.Figure10("BE"))
	})},
	{"fig10b", "Figure 10(b): Government benchmark P/R", text(func(e *evalbench.Env) string {
		return evalbench.FormatFigure10(e.Figure10("BG"))
	})},
	{"table2", "Table 2: programmatic vs ground truth (BE)", text(func(e *evalbench.Env) string {
		return evalbench.FormatTable2(e.Table2())
	})},
	{"fig11", "Figure 11: case-by-case F1 (100 cases)", text(func(e *evalbench.Env) string {
		return evalbench.FormatFigure11(e.Figure11(100))
	})},
	{"fig12a", "Figure 12(a): sensitivity to r", text(func(e *evalbench.Env) string {
		return evalbench.FormatSensitivity("r", e.Figure12a(nil))
	})},
	{"fig12b", "Figure 12(b): sensitivity to m", text(func(e *evalbench.Env) string {
		return evalbench.FormatSensitivity("m", e.Figure12b(nil))
	})},
	{"fig12c", "Figure 12(c): sensitivity to tau", text(func(e *evalbench.Env) string {
		return evalbench.FormatSensitivity("tau", e.Figure12c(nil))
	})},
	{"fig12d", "Figure 12(d): sensitivity to theta", text(func(e *evalbench.Env) string {
		return evalbench.FormatSensitivity("theta", e.Figure12d(nil))
	})},
	{"fig13", "Figure 13: index pattern distributions", text(func(e *evalbench.Env) string {
		return evalbench.FormatFigure13(e.Figure13Analysis())
	})},
	{"fig14", "Figure 14: per-column latency", text(func(e *evalbench.Env) string {
		return evalbench.FormatFigure14(e.Figure14Latency(30, 200))
	})},
	{"table3", "Table 3: user study", text(func(e *evalbench.Env) string {
		return evalbench.FormatTable3(e.Table3UserStudy(20))
	})},
	{"fig15", "Figure 15: Kaggle schema-drift case study", func(e *evalbench.Env, w io.Writer) error {
		rows, err := e.Figure15Kaggle()
		if err != nil {
			return err
		}
		_, err = io.WriteString(w, evalbench.FormatFigure15(rows))
		return err
	}},
	{"ablations", "Ablations", text(func(e *evalbench.Env) string {
		return evalbench.FormatAblation("FMDV vs CMDV objective", e.AblationCMDV()) +
			evalbench.FormatAblation("sum vs max segment aggregation", e.AblationMaxAggregation()) +
			evalbench.FormatAblation("Fisher vs chi-squared drift test", e.AblationDriftTest()) +
			evalbench.FormatAblation("index support threshold", e.AblationIndexSupport())
	})},
}

// text adapts a routine that renders its table as a string.
func text(render func(*evalbench.Env) string) func(*evalbench.Env, io.Writer) error {
	return func(e *evalbench.Env, w io.Writer) error {
		_, err := io.WriteString(w, render(e))
		return err
	}
}

// scales maps -scale to the evaluation configuration.
var scales = map[string]func() evalbench.Config{
	"default": evalbench.DefaultConfig,
	"quick":   evalbench.QuickConfig,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is avbench with its arguments and streams made explicit; it
// returns the exit code. Flags are checked before the lakes are built.
func run(args []string, stdout, stderr io.Writer) int {
	ids := make([]string, len(experiments))
	for i, x := range experiments {
		ids[i] = x.id
	}
	valid := strings.Join(ids, "|") + "|all"

	fs := flag.NewFlagSet("avbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "fig10a", "experiment id: "+valid)
	scale := fs.String("scale", "default", "default|quick")
	showVersion := fs.Bool("version", false, "print version and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *showVersion {
		fmt.Fprintln(stdout, "avbench", buildinfo.Get())
		return 0
	}

	todo, ok := selectExperiments(*exp)
	if !ok {
		fmt.Fprintf(stderr, "avbench: unknown experiment %q; valid: %s\n", *exp, valid)
		return 2
	}
	config, ok := scales[*scale]
	if !ok {
		fmt.Fprintf(stderr, "avbench: unknown scale %q; valid: default|quick\n", *scale)
		return 2
	}

	start := time.Now()
	env := evalbench.NewEnv(config())
	fmt.Fprintf(stderr, "env ready in %s (TE=%d cols idx=%d pats, TG=%d cols idx=%d pats)\n",
		time.Since(start).Round(time.Millisecond),
		env.TE.NumColumns(), env.IdxE.Size(), env.TG.NumColumns(), env.IdxG.Size())
	for _, x := range todo {
		t0 := time.Now()
		if err := runExperiment(env, x, stdout); err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", x.id, err)
			return 1
		}
		fmt.Fprintf(stderr, "[%s done in %s]\n\n", x.id, time.Since(t0).Round(time.Millisecond))
	}
	return 0
}

// selectExperiments resolves an -exp value: one id, or all of them.
func selectExperiments(id string) ([]experiment, bool) {
	if id == "all" {
		return experiments, true
	}
	for _, x := range experiments {
		if x.id == id {
			return []experiment{x}, true
		}
	}
	return nil, false
}

// runExperiment prints one experiment under its heading.
func runExperiment(env *evalbench.Env, x experiment, w io.Writer) error {
	if _, err := fmt.Fprintf(w, "=== %s ===\n", x.title); err != nil {
		return err
	}
	return x.run(env, w)
}
