package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"autovalidate/internal/evalbench"
)

var update = flag.Bool("update", false, "rewrite testdata/quick.golden instead of comparing")

// goldenIDs are the quick-scale experiments whose output is a pure
// function of the seed and fast enough for every test run. fig10a,
// fig12c and fig15 take seconds each; fig14 prints wall-clock latency.
var goldenIDs = []string{"table1", "table2", "table3", "fig10b", "fig11", "fig12a", "fig12b", "fig12d", "fig13", "ablations"}

// tableThreeTime matches the one wall-clock cell among them, FMDV-VH's
// avg-time in Table 3; the comparison blanks it on both sides.
var tableThreeTime = regexp.MustCompile(`(?m)^(FMDV-VH +)\d+\.\d\d `)

// TestQuickGolden pins the paper's tables: the golden experiments, run
// through the experiment table on one quick environment, print exactly
// what testdata/quick.golden holds. Regenerate with -update.
func TestQuickGolden(t *testing.T) {
	env := evalbench.NewEnv(evalbench.QuickConfig())
	var got bytes.Buffer
	for _, id := range goldenIDs {
		todo, ok := selectExperiments(id)
		if !ok {
			t.Fatalf("golden experiment %q is not in the table", id)
		}
		if err := runExperiment(env, todo[0], &got); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	path := filepath.Join("testdata", "quick.golden")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blank := func(b []byte) string { return tableThreeTime.ReplaceAllString(string(b), "${1}<time> ") }
	if g, w := blank(got.Bytes()), blank(want); g != w {
		gl, wl := strings.Split(g, "\n"), strings.Split(w, "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("output differs from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("output has %d lines, %s has %d", len(gl), path, len(wl))
	}
}

// TestFlagsCheckedBeforeEnv: a bad -exp or -scale exits 2 naming the
// valid values, before the lakes are built (≈ 0.5 s at quick scale).
func TestFlagsCheckedBeforeEnv(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-exp", "bogus", "-scale", "quick"}, `unknown experiment "bogus"; valid: table1|fig10a|`},
		{[]string{"-exp", "ingest"}, `unknown experiment "ingest"`},
		{[]string{"-exp", "table1", "-scale", "huge"}, `unknown scale "huge"; valid: default|quick`},
		{[]string{"-json"}, "flag provided but not defined: -json"},
	} {
		var stdout, stderr bytes.Buffer
		start := time.Now()
		code := run(tc.args, &stdout, &stderr)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr %q)", tc.args, code, stderr.String())
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%v: stderr %q does not contain %q", tc.args, stderr.String(), tc.want)
		}
		if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
			t.Errorf("%v: took %s; the flags must be checked before the lakes are built", tc.args, elapsed)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: wrote %q to stdout", tc.args, stdout.String())
		}
	}
}
