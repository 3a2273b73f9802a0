package autovalidate_test

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// Regenerate the checked-in pipeline golden with:
//
//	go test -run TestGoldenPipeline -update
var updateGolden = flag.Bool("update", false, "rewrite golden files instead of comparing")

// TestGoldenPipeline drives the whole offline-to-online tool chain the
// way an operator grows a lake — synthesize a base lake, index it,
// synthesize newly arrived tables, ingest them with avindex -append
// (persisting the delta), compact the delta onto a pristine copy of the
// base with -apply, then infer and validate against the grown index —
// and asserts the exact inferred rule and alarm verdicts against a
// checked-in golden file. Everything runs single-worker so float
// summation order (and therefore every printed digit) is reproducible.
func TestGoldenPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	dir := t.TempDir()
	av := filepath.Join(dir, "av")
	if out, err := exec.Command("go", "build", "-o", av, "./cmd/av").CombinedOutput(); err != nil {
		t.Fatalf("building av: %v\n%s", err, out)
	}
	run := func(wantExit int, name string, args ...string) string {
		t.Helper()
		out, err := exec.Command(av, append([]string{name}, args...)...).CombinedOutput()
		exit := 0
		if ee, ok := err.(*exec.ExitError); ok {
			exit = ee.ExitCode()
		} else if err != nil {
			t.Fatalf("%s %v: %v\n%s", name, args, err, out)
		}
		if exit != wantExit {
			t.Fatalf("%s %v: exit %d, want %d\n%s", name, args, exit, wantExit, out)
		}
		return string(out)
	}

	// Base lake and a batch of newly arrived tables.
	lake := filepath.Join(dir, "lake")
	arrivals := filepath.Join(dir, "arrivals")
	run(0, "gen", "-profile", "enterprise", "-tables", "30", "-seed", "7", "-out", lake)
	run(0, "gen", "-profile", "enterprise", "-tables", "8", "-seed", "21", "-out", arrivals)

	// Full build, then incremental growth: -append on the live index
	// (persisting the delta) and -apply of that delta onto a pristine
	// copy of the base. Both paths must converge to the same index.
	idx := filepath.Join(dir, "lake.idx")
	base := filepath.Join(dir, "base.idx")
	delta := filepath.Join(dir, "batch1.avd")
	out := run(0, "index", "-corpus", lake, "-out", idx, "-tau", "8", "-workers", "1")
	if !strings.Contains(out, "gen=0") {
		t.Fatalf("fresh index should be generation 0: %s", out)
	}
	copyFile(t, idx, base)
	out = run(0, "index", "-append", arrivals, "-out", idx, "-delta", delta, "-workers", "1")
	if !strings.Contains(out, "ingested") || !strings.Contains(out, "gen=1") {
		t.Fatalf("avindex -append output: %s", out)
	}
	out = run(0, "index", "-apply", delta, "-out", base, "-workers", "1")
	if !strings.Contains(out, "compacted 1 delta(s)") || !strings.Contains(out, "gen=1") {
		t.Fatalf("avindex -apply output: %s", out)
	}

	// The feed is a newly ingested table: its rule comes from evidence
	// that only exists because of the incremental path.
	files, err := filepath.Glob(filepath.Join(arrivals, "*.csv"))
	if err != nil || len(files) == 0 {
		t.Fatalf("arrival files: %v %v", files, err)
	}
	sort.Strings(files)
	feed := files[0]
	head, err := os.ReadFile(feed)
	if err != nil {
		t.Fatal(err)
	}
	firstCol := strings.SplitN(strings.SplitN(string(head), "\n", 2)[0], ",", 2)[0]

	inferOut := run(0, "infer", "-index", idx, "-csv", feed, "-col", firstCol, "-m", "5")
	// Appended and compacted indexes must serve identical rules.
	if viaApply := run(0, "infer", "-index", base, "-csv", feed, "-col", firstCol, "-m", "5"); viaApply != inferOut {
		t.Errorf("-append and -apply indexes disagree:\n%s\nvs\n%s", inferOut, viaApply)
	}

	cleanOut := run(0, "validate", "-index", idx, "-train", feed, "-test", feed, "-m", "5")
	drifted := filepath.Join(dir, "drifted.csv")
	writeShuffledColumns(t, feed, drifted)
	driftOut := run(1, "validate", "-index", idx, "-train", feed, "-test", drifted, "-m", "5")

	got := fmt.Sprintf("== avinfer (feed=%s col=%s) ==\n%s== avvalidate clean (exit 0) ==\n%s== avvalidate drift (exit 1) ==\n%s",
		filepath.Base(feed), firstCol, inferOut, cleanOut, driftOut)

	goldenPath := filepath.Join("testdata", "golden", "pipeline.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("pipeline output diverged from %s:\n--- got ---\n%s\n--- want ---\n%s", goldenPath, got, want)
	}
}

func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
}
