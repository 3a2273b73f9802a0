package main

import (
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"

	"autovalidate"
	"autovalidate/internal/corpus"
	"autovalidate/internal/monitor"
	"autovalidate/internal/registry"
)

// monitorCmd drives continuous validation from the command line: it
// registers validation rules for every column of a training corpus
// into a persistent registry, then replays directories of batch tables
// (one directory per pipeline run — a "day") against those rules,
// printing the monitor's accept / alarm / quarantine / re-infer
// decision for every stream and batch.
//
//	av monitor -index lake.idx -registry rules.avr register <train-dir>
//	av monitor -index lake.idx -registry rules.avr replay <batch-dir> [<batch-dir> ...]
//
// Streams are named "table.csv:column". register infers one rule per
// column (columns with no feasible pattern are skipped with a note) and
// saves the registry; re-running register bumps versions of existing
// streams. replay checks each batch directory in argument order; a
// batch whose decision escalates to re-inference re-learns the rule
// from that batch and persists the bumped version, mirroring the
// service's POST /streams/{name}/check.
//
// Exit status: 0 when every replayed batch was accepted, 1 when any
// batch raised an alarm or was quarantined or re-inferred, 2 on usage
// errors, 3 on operational failures (unreadable index, corpus, or
// registry).
//
// Escalation state (the consecutive-alarm ladder behind
// -quarantine-after and -reinfer-after) lives in process memory: each
// av monitor invocation starts every stream's ladder fresh, so a stream
// alarming across separate replay runs never escalates past what one
// run saw — by design for a CLI whose exit code summarizes one run.
// For escalation that must survive restarts, run av serve with
// -journal: the service rehydrates each stream's ladder from the audit
// journal at startup.
func monitorCmd(c *command, flags *flag.FlagSet) func([]string) {
	regPath := flags.String("registry", "rules.avr", "stream-rule registry file")
	tune := tuningFlags(flags, true, false)
	quarantineAfter := flags.Int("quarantine-after", 3, "consecutive alarming batches before quarantine")
	reinferAfter := flags.Int("reinfer-after", 6, "consecutive alarming batches before re-inference")
	withUsage(flags, "usage: av monitor [flags] register <train-dir>\n"+
		"       av monitor [flags] replay <batch-dir> [<batch-dir> ...]\n\n"+
		"exit status: 0 all batches accepted; 1 any alarm/quarantine/re-infer;\n"+
		"             2 usage error; 3 operational failure\n\nflags:\n")
	return func(args []string) {
		if len(args) < 2 {
			flags.Usage()
			os.Exit(2)
		}
		verb, dirs := args[0], args[1:]

		idx, opt, err := tune.load()
		if err != nil {
			c.fatal(err)
		}
		switch verb {
		case "register":
			if len(dirs) != 1 {
				c.misuse("register takes exactly one training directory")
			}
			if err := register(idx, *regPath, dirs[0], opt); err != nil {
				c.fatal(err)
			}
		case "replay":
			pol := monitor.DefaultPolicy()
			pol.Alpha = opt.Alpha
			pol.QuarantineAfter = *quarantineAfter
			pol.ReinferAfter = *reinferAfter
			disrupted, err := replay(idx, *regPath, dirs, pol)
			if err != nil {
				c.fatal(err)
			}
			if disrupted {
				os.Exit(1)
			}
		default:
			c.misuse(fmt.Sprintf("unknown command %q (want register or replay)", verb))
		}
	}
}

// streamName derives the stream identifier for one column. Stream names
// must be single path segments for the service's /streams/{name} routes,
// so the separator is ":" rather than "/".
func streamName(c *corpus.Column) string { return c.Table + ":" + c.Name }

func register(idx *autovalidate.Index, regPath, dir string, opt autovalidate.Options) error {
	c, err := autovalidate.LoadCorpusDir(dir)
	if err != nil {
		return err
	}
	reg, err := registry.Load(regPath)
	if errors.Is(err, fs.ErrNotExist) {
		reg, err = registry.New(), nil // the first register creates it
	}
	if err != nil {
		return err
	}
	registered, skipped := 0, 0
	for _, col := range c.Columns() {
		s, err := reg.Learn(streamName(col), col.Values, idx, opt)
		if errors.Is(err, registry.ErrBadName) {
			return err
		}
		if err != nil {
			fmt.Printf("  %-32s no rule (%v)\n", streamName(col), err)
			skipped++
			continue
		}
		suffix := ""
		if dom := s.Domain; dom.Name != "" {
			suffix = fmt.Sprintf(" [domain %s %.2f]", dom.Name, dom.Confidence)
		}
		fmt.Printf("  %-32s v%d %s (est FPR %.4f)%s\n", s.Name, s.Version, s.Rule.Pattern, s.Rule.EstimatedFPR, suffix)
		registered++
	}
	if err := reg.Save(regPath); err != nil {
		return err
	}
	fmt.Printf("registered %d stream(s) (%d without a feasible pattern) -> %s\n", registered, skipped, regPath)
	return nil
}

func replay(idx *autovalidate.Index, regPath string, dirs []string, pol monitor.Policy) (disrupted bool, err error) {
	reg, err := registry.Load(regPath)
	if err != nil {
		return false, err
	}
	eng := monitor.NewEngine(pol)
	reinferred := 0
	for day, dir := range dirs {
		batch, err := autovalidate.LoadCorpusDir(dir)
		if err != nil {
			return disrupted, err
		}
		reinferredToday := 0
		fmt.Printf("== batch %d: %s ==\n", day+1, dir)
		for _, col := range batch.Columns() {
			name := streamName(col)
			stream, ok := reg.Get(name)
			if !ok {
				continue // not a registered stream
			}
			dec, err := eng.Check(stream, col.Values)
			if err != nil {
				return disrupted, err
			}
			v := dec.Verdict
			domNote := ""
			if v.Domain != "" {
				domNote = fmt.Sprintf(", %s-invalid=%d", v.Domain, v.DomainInvalid)
			}
			fmt.Printf("  %-32s %-10s %d/%d non-conforming (drift p=%.3g, ewma=%.3f%s)\n",
				name, v.ActionName, v.NonConforming, v.Total, v.DriftP, dec.PassEWMA, domNote)
			if v.Action != monitor.Accept {
				disrupted = true
			}
			if v.Action == monitor.Reinfer {
				// The drifted batch is the new normal: re-learn and
				// bump the version, as the service's check endpoint does.
				next, err := reg.Learn(name, col.Values, idx, stream.Options)
				if err != nil {
					fmt.Printf("  %-32s re-inference failed: %v\n", name, err)
					continue
				}
				eng.Reset(name)
				reinferredToday++
				fmt.Printf("  %-32s re-inferred -> v%d %s\n", name, next.Version, next.Rule.Pattern)
			}
		}
		// Persist after every batch that re-inferred, so a failure on a
		// later directory cannot lose rule versions already bumped.
		if reinferredToday > 0 {
			if err := reg.Save(regPath); err != nil {
				return disrupted, err
			}
			reinferred += reinferredToday
		}
	}
	if reinferred > 0 {
		fmt.Printf("persisted %d re-inferred rule(s) -> %s\n", reinferred, regPath)
	}
	if !disrupted {
		fmt.Println("all batches accepted")
	}
	return disrupted, nil
}
