// Command avlint runs the project's custom static-analysis suite: five
// analyzers that enforce the correctness invariants the validation
// cluster's design rests on (error-not-panic decode paths, %w error
// chains, checked write-path closes, bounded request bodies, and
// structured serving-path logging). See
// internal/lint/checkers for the suite
// and README.md "Static analysis" for the invariant each one guards.
//
//	avlint ./...                 # any package patterns (default ./...)
//	avlint -only nopanic ./...   # a subset of the analyzers
//
// Packages load through internal/lint/load (go list plus go/types).
// Findings print as file:line:col: message (analyzer); the exit status
// is 1 when findings exist, which is what makes avlint a CI gate, and 2
// when the packages cannot be loaded.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"autovalidate/internal/buildinfo"
	"autovalidate/internal/lint/analysis"
	"autovalidate/internal/lint/checkers"
	"autovalidate/internal/lint/load"
)

func main() {
	onlyFlag := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	flag.Usage = usage
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println("avlint", buildinfo.Get())
		return
	}
	os.Exit(run(flag.Args(), *onlyFlag))
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: avlint [-only name,...] [package pattern ...]\n\nanalyzers:\n")
	for _, a := range checkers.All() {
		fmt.Fprintf(os.Stderr, "  %-15s %s\n", a.Name, a.Doc)
	}
}

// selected resolves the -only flag against the suite.
func selected(only string) ([]*analysis.Analyzer, error) {
	if only == "" {
		return checkers.All(), nil
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(only, ",") {
		a, ok := checkers.ByName(strings.TrimSpace(name))
		if !ok {
			return nil, fmt.Errorf("avlint: unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// run loads patterns via the go command and analyzes them.
func run(patterns []string, only string) int {
	analyzers, err := selected(only)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	units, err := load.Packages("", patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	found := false
	for _, unit := range units {
		for _, f := range analysis.Run(unit, analyzers) {
			found = true
			fmt.Fprintln(os.Stderr, f)
		}
	}
	if found {
		return 1
	}
	return 0
}
