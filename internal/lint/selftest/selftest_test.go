// Package selftest turns avlint on its own repository: the meta-test
// asserting the codebase stays clean under the full analyzer suite, and
// that every //avlint:allow carries a reason. CI runs the same suite
// as `go run ./cmd/avlint ./...`, through the same loader; this test is
// the laptop-local equivalent, so a violation fails `go test ./...`
// before it ever reaches CI.
package selftest

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"autovalidate/internal/lint/analysis"
	"autovalidate/internal/lint/checkers"
	"autovalidate/internal/lint/load"
)

// repoRoot locates the module root from this package's directory.
func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("repo root not at %s: %v", root, err)
	}
	return root
}

// TestRepoIsLintClean runs the full analyzer suite over every package
// in the repository and fails on any finding. This is the invariant the
// whole PR establishes: the codebase itself satisfies its own lint
// contracts.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole repository")
	}
	units, err := load.Packages(repoRoot(t), []string{"./..."})
	if err != nil {
		t.Fatalf("loading repository: %v", err)
	}
	if len(units) == 0 {
		t.Fatal("no packages loaded")
	}
	for _, u := range units {
		for _, f := range analysis.Run(u, checkers.All()) {
			t.Errorf("%s", f)
		}
	}
}

// TestAllowCommentsCarryReasons enforces the suppression convention:
// every //avlint:allow names at least one analyzer and states a reason,
// so a suppression is always reviewable without archaeology.
func TestAllowCommentsCarryReasons(t *testing.T) {
	root := repoRoot(t)
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// Fixture allows exercise the mechanism, not the convention.
			if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				spec, ok := strings.CutPrefix(text, "avlint:allow")
				if !ok {
					continue
				}
				line := fset.Position(c.Pos()).Line
				fields := strings.Fields(strings.TrimSpace(spec))
				if len(fields) == 0 {
					t.Errorf("%s:%d: //avlint:allow without an analyzer name", rel, line)
					continue
				}
				if len(fields) < 2 {
					t.Errorf("%s:%d: //avlint:allow %s without a reason", rel, line, fields[0])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
