// Command avlint runs the project's custom static-analysis suite: five
// analyzers that enforce the correctness invariants the validation
// cluster's design rests on (error-not-panic decode paths, %w error
// chains, checked write-path closes, bounded request bodies, and
// structured serving-path logging). See
// internal/lint/checkers for the suite
// and README.md "Static analysis" for the invariant each one guards.
//
// Two modes share the same analyzers:
//
//	avlint ./...                     # standalone, any package pattern
//	go vet -vettool=$(pwd)/avlint ./...  # as a vet tool
//
// The vet-tool mode speaks cmd/go's unitchecker protocol: -flags
// enumerates supported flags as JSON, -V=full prints a version
// fingerprint, and a trailing *.cfg argument carries one package's
// file list and export-data map. Findings print as
// file:line:col: message (analyzer); the exit status is non-zero when
// findings exist, which is what makes avlint a CI gate.
package main

import (
	"autovalidate/internal/buildinfo"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"strings"

	"autovalidate/internal/lint/analysis"
	"autovalidate/internal/lint/checkers"
	"autovalidate/internal/lint/load"
)

func main() {
	versionFlag := flag.String("V", "", "print version information (-V=full) and exit")
	flagsFlag := flag.Bool("flags", false, "print analyzer flags as JSON and exit (vet-tool protocol)")
	onlyFlag := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	flag.Usage = usage
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println("avlint", buildinfo.Get())
		return
	}

	switch {
	case *versionFlag != "":
		printVersion()
		return
	case *flagsFlag:
		// The vet-tool protocol: cmd/go asks which flags the tool
		// supports before deciding what to pass. avlint keeps its
		// per-run configuration out of vet's way, so the answer is
		// empty.
		fmt.Println("[]")
		return
	}

	args := flag.Args()
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(unitcheck(args[0]))
	}
	os.Exit(standalone(args, *onlyFlag))
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

// standalone loads patterns via the go command and analyzes them.
func standalone(patterns []string, only string) int {
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

// vetConfig mirrors the JSON written by cmd/go for each vetted package
// (see $GOROOT/src/cmd/go/internal/work/exec.go, vetConfig).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// unitcheck analyzes one package from a vet.cfg, following the
// unitchecker exit conventions: 0 clean, 2 findings or failure.
func unitcheck(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "avlint:", err)
		return 2
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "avlint: parsing %s: %v\n", cfgPath, err)
		return 2
	}
	// cmd/go reads the vetx (analysis facts) file back and feeds it to
	// later runs. avlint's analyzers are fact-free, so an empty file
	// both satisfies the protocol and caches as a no-op.
	writeVetx := func() {
		if cfg.VetxOutput != "" {
			if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
				fmt.Fprintln(os.Stderr, "avlint:", err)
			}
		}
	}
	if cfg.VetxOnly {
		// Dependency-only run: cmd/go wants facts, and there are none.
		writeVetx()
		return 0
	}

	fset := token.NewFileSet()
	imp := load.ExportImporter(fset, func(path string) (string, bool) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		return file, ok
	})
	unit, err := load.Check(fset, cfg.ImportPath, cfg.GoFiles, imp, cfg.GoVersion)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			writeVetx()
			return 0
		}
		fmt.Fprintln(os.Stderr, "avlint:", err)
		return 2
	}
	findings := analysis.Run(unit, checkers.All())
	for _, f := range findings {
		fmt.Fprintln(os.Stderr, f)
	}
	writeVetx()
	if len(findings) > 0 {
		return 2
	}
	return 0
}

// printVersion emits the version fingerprint cmd/go hashes for build
// caching; the content hash of the binary itself is the only honest
// version an always-rebuilt tool has.
func printVersion() {
	name := filepath.Base(os.Args[0])
	h := sha256.New()
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			_, _ = io.Copy(h, f)
			// Read-only hash of our own binary; nothing to flush.
			_ = f.Close()
		}
	}
	fmt.Printf("%s version devel buildID=%02x\n", name, h.Sum(nil))
}
