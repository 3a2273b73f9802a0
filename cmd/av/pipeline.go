package main

// The offline pipeline: gen, index, infer and validate.

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"autovalidate"
	"autovalidate/internal/datagen"
)

// genCmd synthesizes a data lake (the stand-in for the paper's
// Enterprise and Government corpora) as a directory of CSV files.
//
//	av gen -profile enterprise -tables 200 -seed 1 -out ./lake
func genCmd(c *command, flags *flag.FlagSet) func([]string) {
	profile := flags.String("profile", "enterprise", "lake profile: enterprise|government")
	tables := flags.Int("tables", 150, "number of data files to generate")
	seed := flags.Int64("seed", 1, "generation seed")
	out := flags.String("out", "lake", "output directory")
	return func([]string) {
		var p datagen.Profile
		switch *profile {
		case "enterprise":
			p = datagen.Enterprise(*tables, *seed)
		case "government":
			p = datagen.Government(*tables, *seed)
		default:
			c.misuse(fmt.Sprintf("unknown profile %q", *profile))
		}
		lake := datagen.Generate(p)
		if err := lake.SaveDir(*out); err != nil {
			c.fatal(err)
		}
		stats := lake.ComputeStats()
		fmt.Printf("wrote %d files (%d columns, %d values) to %s\n",
			stats.NumFiles, stats.NumCols, stats.TotalValues, *out)
	}
}

// indexCmd builds and incrementally maintains the offline Auto-Validate
// index (§2.4) over a directory-of-CSV/TSV lake.
//
//	av index -corpus ./lake -out lake.idx -tau 8        # full build
//	av index -append ./new-tables -out lake.idx         # incremental ingest
//	av index -append ./new -out lake.idx -delta d1.avd  # ...also persist the delta
//	av index -apply d1.avd,d2.avd -out lake.idx         # compact saved deltas
//
// -append loads the existing -out index, delta-builds just the new
// tables, folds them in, and rewrites the index — orders of magnitude
// cheaper than re-scanning the whole lake. -apply replays deltas written
// by -delta onto a base index (they must apply in generation order).
func indexCmd(c *command, flags *flag.FlagSet) func([]string) {
	corpusDir := flags.String("corpus", "lake", "directory of CSV/TSV files for a full build")
	appendDir := flags.String("append", "", "directory of new tables to ingest into the existing -out index")
	deltaOut := flags.String("delta", "", "with -append: also write the ingest delta to this file")
	applyList := flags.String("apply", "", "comma-separated delta files to compact onto the existing -out index")
	out := flags.String("out", "lake.idx", "index file (output; for -append/-apply also the input)")
	tau := flags.Int("tau", 8, "token-count cap τ for indexed patterns (full build only)")
	workers := flags.Int("workers", 0, "parallelism (0 = GOMAXPROCS)")
	verbose := flags.Bool("v", false, "print progress")
	return func([]string) {
		opt := autovalidate.DefaultBuildOptions()
		opt.Enum.MaxTokens = *tau
		opt.Workers = *workers
		if *verbose {
			opt.Progress = func(done, total int) {
				if done%500 == 0 || done == total {
					fmt.Fprintf(os.Stderr, "\rindexed %d/%d columns", done, total)
				}
			}
		}

		if *appendDir != "" && *applyList != "" {
			c.misuse("-append and -apply are mutually exclusive")
		}
		if *deltaOut != "" && *appendDir == "" {
			c.misuse("-delta requires -append")
		}

		start := time.Now()
		switch {
		case *appendDir != "":
			appendRun(c, *appendDir, *out, *deltaOut, opt, start)
		case *applyList != "":
			applyRun(c, strings.Split(*applyList, ","), *out, start)
		default:
			buildRun(c, *corpusDir, *out, opt, *verbose, start)
		}
	}
}

// buildRun is the original one-pass full build.
func buildRun(c *command, corpusDir, out string, opt autovalidate.BuildOptions, verbose bool, start time.Time) {
	lake, err := autovalidate.LoadCorpusDir(corpusDir)
	if err != nil {
		c.fatal(err)
	}
	idx := autovalidate.BuildIndex(lake, opt)
	if verbose {
		fmt.Fprintln(os.Stderr)
	}
	if err := idx.Save(out); err != nil {
		c.fatal(err)
	}
	fmt.Printf("%s in %s -> %s\n", idx, time.Since(start).Round(time.Millisecond), out)
}

// appendRun ingests a directory of new tables into an existing index.
func appendRun(c *command, dir, out, deltaOut string, opt autovalidate.BuildOptions, start time.Time) {
	idx, err := autovalidate.LoadIndex(out)
	if err != nil {
		c.fatal(err)
	}
	batch, err := autovalidate.LoadCorpusDir(dir)
	if err != nil {
		c.fatal(err)
	}
	cols := batch.Columns()
	delta, err := idx.IngestColumns(cols, opt)
	if err != nil {
		c.fatal(err)
	}
	if deltaOut != "" {
		if err := autovalidate.SaveIndexDelta(deltaOut, delta); err != nil {
			c.fatal(err)
		}
	}
	if err := idx.Save(out); err != nil {
		c.fatal(err)
	}
	fmt.Printf("ingested %d columns from %s: %s in %s -> %s\n",
		len(cols), dir, idx, time.Since(start).Round(time.Millisecond), out)
}

// applyRun compacts saved deltas onto an existing base index, in order.
func applyRun(c *command, deltaPaths []string, out string, start time.Time) {
	idx, err := autovalidate.LoadIndex(out)
	if err != nil {
		c.fatal(err)
	}
	deltas := make([]*autovalidate.IndexDelta, 0, len(deltaPaths))
	for _, p := range deltaPaths {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		d, err := autovalidate.LoadIndexDelta(p)
		if err != nil {
			c.fatal(err)
		}
		deltas = append(deltas, d)
	}
	if err := autovalidate.CompactIndex(idx, deltas...); err != nil {
		c.fatal(err)
	}
	if err := idx.Save(out); err != nil {
		c.fatal(err)
	}
	fmt.Printf("compacted %d delta(s): %s in %s -> %s\n",
		len(deltas), idx, time.Since(start).Round(time.Millisecond), out)
}

// inferCmd infers a data-domain validation pattern for one column
// against a prebuilt index. The column comes either from a text file
// with one value per line (-values) or from a named column of a CSV
// file (-csv/-col).
//
//	av infer -index lake.idx -csv feed.csv -col order_ts -strategy FMDV-VH
func inferCmd(c *command, flags *flag.FlagSet) func([]string) {
	valuesPath := flags.String("values", "", "text file with one value per line")
	csvPath := flags.String("csv", "", "CSV file containing the column")
	colName := flags.String("col", "", "column name within -csv")
	tune := tuningFlags(flags, false, true)
	return func([]string) {
		idx, opt, err := tune.load()
		if err != nil {
			c.fatal(err)
		}
		values, err := loadValues(*valuesPath, *csvPath, *colName)
		if err != nil {
			c.fatal(err)
		}
		rule, err := autovalidate.Infer(values, idx, opt)
		if err != nil {
			c.fatal(err)
		}
		fmt.Printf("strategy:       %s\n", rule.Strategy)
		fmt.Printf("pattern:        %s\n", rule.Pattern)
		fmt.Printf("estimated FPR:  %.6f\n", rule.EstimatedFPR)
		fmt.Printf("train θ:        %.4f (%d/%d non-conforming)\n",
			rule.TrainTheta(), rule.TrainNonConforming, rule.TrainTotal)
		if len(rule.Segments) > 1 {
			fmt.Println("segments:")
			for i, s := range rule.Segments {
				fmt.Printf("  %2d: %s\n", i, s)
			}
		}
		if dom, ok := autovalidate.ProposeDomain(values); ok {
			if len(dom.Vocab) > 0 {
				fmt.Printf("domain:         %s (confidence %.2f, %d words)\n",
					dom.Name, dom.Confidence, len(dom.Vocab))
			} else {
				fmt.Printf("domain:         %s (confidence %.2f)\n", dom.Name, dom.Confidence)
			}
		}
	}
}

func loadValues(valuesPath, csvPath, colName string) ([]string, error) {
	switch {
	case valuesPath != "":
		f, err := os.Open(valuesPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		var out []string
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			out = append(out, sc.Text())
		}
		return out, sc.Err()
	case csvPath != "":
		t, err := autovalidate.LoadTable(csvPath)
		if err != nil {
			return nil, err
		}
		for _, col := range t.Columns {
			if col.Name == colName {
				return col.Values, nil
			}
		}
		return nil, fmt.Errorf("column %q not found in %s", colName, csvPath)
	default:
		return nil, fmt.Errorf("provide -values or -csv/-col")
	}
}

// validateCmd learns validation rules from a training table and
// validates a future batch of the same table against them — the
// recurring-pipeline workflow of the paper's introduction.
//
//	av validate -index lake.idx -train monday.csv -test tuesday.csv
//
// The exit status is the scripting contract: 0 when every validated
// column passed, 1 when any column was flagged non-conforming (drift
// alarm), 2 on usage errors, 3 on operational failures (unreadable
// index or tables, or a column whose validation errored). A pipeline
// can therefore gate a load on `av validate ... || abort`.
func validateCmd(c *command, flags *flag.FlagSet) func([]string) {
	trainPath := flags.String("train", "", "training CSV (today's feed)")
	testPath := flags.String("test", "", "CSV to validate (tomorrow's feed)")
	tune := tuningFlags(flags, true, false)
	withUsage(flags, "usage: av validate -index lake.idx -train monday.csv -test tuesday.csv [flags]\n\n"+
		"exit status: 0 all validated columns passed; 1 any column ALARMED;\n"+
		"             2 usage error; 3 operational failure\n\nflags:\n")
	return func([]string) {
		if *trainPath == "" || *testPath == "" {
			fmt.Fprintln(os.Stderr, c.prog+": -train and -test are required")
			flags.Usage()
			os.Exit(2)
		}
		idx, opt, err := tune.load()
		if err != nil {
			c.fatal(err)
		}
		trainTbl, err := autovalidate.LoadTable(*trainPath)
		if err != nil {
			c.fatal(err)
		}
		testTbl, err := autovalidate.LoadTable(*testPath)
		if err != nil {
			c.fatal(err)
		}

		rules, errs := autovalidate.InferTable(trainTbl, idx, opt)
		fmt.Printf("learned %d rules (%d columns without a feasible pattern)\n", len(rules.Rules), len(errs))

		cols := map[string][]string{}
		for _, col := range testTbl.Columns {
			cols[col.Name] = col.Values
		}
		alarms, failures := 0, 0
		for _, cr := range rules.ValidateColumns(cols) {
			if cr.Err != nil {
				fmt.Printf("  %-24s error: %v\n", cr.Column, cr.Err)
				failures++
				continue
			}
			fmt.Printf("  %-24s %s\n", cr.Column, cr.Report)
			if cr.Report.Alarm {
				alarms++
			}
		}
		switch {
		case alarms > 0:
			fmt.Printf("%d column(s) ALARMED\n", alarms)
			os.Exit(1)
		case failures > 0:
			fmt.Printf("%d column(s) failed to validate\n", failures)
			os.Exit(3)
		}
		fmt.Println("all validated columns passed")
	}
}
