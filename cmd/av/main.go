// Command av is the Auto-Validate pipeline on one command line: build
// the offline index over a data lake (§2.4), infer a column's
// validation rule, and validate every recurring run — from a shell, a
// registry-backed replay, or a long-running service and its cluster.
//
// Usage:
//
//	av gen       synthesize a data lake of CSV files
//	av index     build or grow the offline index
//	av infer     infer one column's validation pattern
//	av validate  learn rules from one table, validate the next batch
//	av monitor   register stream rules, replay batches against them
//	av tail      follow a server's (or cluster's) audit journal
//	av serve     run the HTTP service (optionally leader or follower)
//	av gateway   route traffic across a replicated cluster
//	av version   print the build identity
//
// Each subcommand takes its own flags after its name (av infer -h lists
// them). Messages keep the name of the tool each subcommand used to be
// (avindex:, avserve:, ...), so logs and scripts that match on them
// keep working.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"autovalidate"
	"autovalidate/internal/core"
)

// command is one subcommand. setup registers its flags and
// returns the body, which runs on the arguments left after parsing.
// Keeping the two apart lets TestSubcommandFlags read every flag set
// without running anything.
type command struct {
	name, summary string
	// prog prefixes the subcommand's messages; fail is its exit status
	// for operational failures.
	prog  string
	fail  int
	setup func(c *command, flags *flag.FlagSet) func(args []string)
}

// commands lists every subcommand once, in the order usage prints them.
var commands = []*command{
	{name: "gen", summary: "synthesize a data lake of CSV files", prog: "avgen", fail: 1, setup: genCmd},
	{name: "index", summary: "build or grow the offline index", prog: "avindex", fail: 1, setup: indexCmd},
	{name: "infer", summary: "infer one column's validation pattern", prog: "avinfer", fail: 1, setup: inferCmd},
	{name: "validate", summary: "learn rules from one table, validate the next batch", prog: "avvalidate", fail: 3, setup: validateCmd},
	{name: "monitor", summary: "register stream rules, replay batches against them", prog: "avmonitor", fail: 3, setup: monitorCmd},
	{name: "tail", summary: "follow a server's (or cluster's) audit journal", prog: "avtail", fail: 1, setup: tailCmd},
	{name: "serve", summary: "run the HTTP service (optionally leader or follower)", prog: "avserve", fail: 1, setup: serveCmd},
	{name: "gateway", summary: "route traffic across a replicated cluster", prog: "avgateway", fail: 1, setup: gatewayCmd},
	{name: "version", summary: "print the build identity", prog: "av", fail: 1, setup: versionCmd},
}

func main() {
	if len(os.Args) < 2 {
		usage(os.Stderr)
		os.Exit(2)
	}
	name, args := os.Args[1], os.Args[2:]
	for _, c := range commands {
		if c.name == name {
			flags := c.flagSet()
			run := c.setup(c, flags)
			flags.Parse(args) // ExitOnError: a bad flag exits 2
			run(flags.Args())
			return
		}
	}
	switch name {
	case "-h", "-help", "--help", "help":
		usage(os.Stdout)
		return
	}
	fmt.Fprintf(os.Stderr, "av: unknown subcommand %q\n", name)
	usage(os.Stderr)
	os.Exit(2)
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: av <subcommand> [flags] [args]\n\nsubcommands:")
	for _, c := range commands {
		fmt.Fprintf(w, "  %-9s %s\n", c.name, c.summary)
	}
	fmt.Fprintln(w, "\nav <subcommand> -h lists a subcommand's flags.")
}

func (c *command) flagSet() *flag.FlagSet {
	return flag.NewFlagSet("av "+c.name, flag.ExitOnError)
}

// fatal reports err under the subcommand's name and exits with its
// failure status.
func (c *command) fatal(err error) {
	fmt.Fprintln(os.Stderr, c.prog+":", err)
	os.Exit(c.fail)
}

// misuse reports a usage error and exits with status 2.
func (c *command) misuse(msg string) {
	fmt.Fprintln(os.Stderr, c.prog+":", msg)
	os.Exit(2)
}

// withUsage installs a usage text that heads the flag list.
func withUsage(flags *flag.FlagSet, text string) {
	flags.Usage = func() {
		fmt.Fprint(flags.Output(), text)
		flags.PrintDefaults()
	}
}

func versionCmd(_ *command, _ *flag.FlagSet) func([]string) {
	return func([]string) { fmt.Println("av", autovalidate.GetBuildInfo()) }
}

// tuning holds the inference flags infer, validate, monitor and serve
// share: -index, -r, -m and -theta always, -alpha and -strategy where
// the subcommand uses them. The flags write straight into
// DefaultOptions, so a flag a subcommand lacks keeps its library
// default.
type tuning struct {
	index    string
	opt      autovalidate.Options
	strategy string
}

func tuningFlags(flags *flag.FlagSet, alpha, strategy bool) *tuning {
	t := &tuning{opt: autovalidate.DefaultOptions()}
	flags.StringVar(&t.index, "index", "lake.idx", "offline index file (built by av index)")
	flags.Float64Var(&t.opt.R, "r", 0.1, "FPR target r")
	flags.IntVar(&t.opt.M, "m", 100, "coverage target m")
	flags.Float64Var(&t.opt.Theta, "theta", 0.1, "non-conforming tolerance θ")
	if alpha {
		flags.Float64Var(&t.opt.Alpha, "alpha", 0.01, "drift-test significance level")
	}
	if strategy {
		flags.StringVar(&t.strategy, "strategy", "FMDV-VH", "FMDV variant (FMDV, FMDV-V, FMDV-H, FMDV-VH)")
	}
	return t
}

// options resolves the flags into inference options.
func (t *tuning) options() (autovalidate.Options, error) {
	opt := t.opt
	if t.strategy != "" {
		s, err := core.ParseStrategy(t.strategy)
		if err != nil {
			return opt, err
		}
		opt.Strategy = s
	}
	return opt, nil
}

// load reads the -index file and returns it with the resolved options.
func (t *tuning) load() (*autovalidate.Index, autovalidate.Options, error) {
	opt, err := t.options()
	if err != nil {
		return nil, opt, err
	}
	idx, err := loadIndex(t.index, &opt)
	return idx, opt, err
}

// loadIndex reads the offline index and sets opt's τ to the token cap
// the index was built with; an index built with no cap (τ 0) keeps the
// configured τ, as service.New and InstallSnapshot do.
func loadIndex(path string, opt *autovalidate.Options) (*autovalidate.Index, error) {
	idx, err := autovalidate.LoadIndex(path)
	if err != nil {
		return nil, err
	}
	if idx.Enum.MaxTokens > 0 {
		opt.Tau = idx.Enum.MaxTokens
	}
	return idx, nil
}
