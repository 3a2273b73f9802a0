package autovalidate_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"autovalidate"
)

// TestCLIEndToEnd drives the four pipeline tools the way an operator
// would: synthesize a lake, index it, inspect one column's rule, and
// validate a recurring feed — asserting the drifted day alarms (exit 1)
// while the clean day passes (exit 0).
func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	dir := t.TempDir()
	av := filepath.Join(dir, "av")
	if out, err := exec.Command("go", "build", "-o", av, "./cmd/av").CombinedOutput(); err != nil {
		t.Fatalf("building av: %v\n%s", err, out)
	}

	lake := filepath.Join(dir, "lake")
	run := func(wantExit int, name string, args ...string) string {
		t.Helper()
		cmd := exec.Command(av, append([]string{name}, args...)...)
		out, err := cmd.CombinedOutput()
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

	out := run(0, "gen", "-profile", "enterprise", "-tables", "40", "-seed", "3", "-out", lake)
	if !strings.Contains(out, "wrote 40 files") {
		t.Fatalf("avgen output: %s", out)
	}

	idx := filepath.Join(dir, "lake.idx")
	out = run(0, "index", "-corpus", lake, "-out", idx, "-tau", "8")
	if !strings.Contains(out, "index{") {
		t.Fatalf("avindex output: %s", out)
	}

	// Pick a generated file as the recurring feed and another as a
	// "drifted" feed with different columns.
	files, err := filepath.Glob(filepath.Join(lake, "*.csv"))
	if err != nil || len(files) < 2 {
		t.Fatalf("lake files: %v %v", files, err)
	}
	feed := files[0]

	// avinfer on the first column of the feed.
	head, err := os.ReadFile(feed)
	if err != nil {
		t.Fatal(err)
	}
	firstCol := strings.SplitN(strings.SplitN(string(head), "\n", 2)[0], ",", 2)[0]
	out = run(0, "infer", "-index", idx, "-csv", feed, "-col", firstCol, "-m", "5")
	if !strings.Contains(out, "pattern:") {
		t.Fatalf("avinfer output: %s", out)
	}

	// Validating the feed against itself must pass...
	out = run(0, "validate", "-index", idx, "-train", feed, "-test", feed, "-m", "5")
	if !strings.Contains(out, "passed") {
		t.Fatalf("avvalidate clean output: %s", out)
	}
	// ...and validating a structurally different table must alarm,
	// provided at least one rule was learned (column names must match,
	// so build a drifted copy of the feed by shuffling its columns).
	drifted := filepath.Join(dir, "drifted.csv")
	writeShuffledColumns(t, feed, drifted)
	out = run(1, "validate", "-index", idx, "-train", feed, "-test", drifted, "-m", "5")
	if !strings.Contains(out, "ALARM") {
		t.Fatalf("avvalidate drift output: %s", out)
	}
}

// TestAvmonitorEndToEnd drives the continuous-validation CLI: register
// stream rules from a training day, replay a clean day (exit 0), then a
// day whose columns drifted (exit 1 with alarms), and confirm the
// registry file survives and re-registration bumps versions.
func TestAvmonitorEndToEnd(t *testing.T) {
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

	lake := filepath.Join(dir, "lake")
	run(0, "gen", "-profile", "enterprise", "-tables", "40", "-seed", "3", "-out", lake)
	idx := filepath.Join(dir, "lake.idx")
	run(0, "index", "-corpus", lake, "-out", idx, "-tau", "8")

	files, err := filepath.Glob(filepath.Join(lake, "*.csv"))
	if err != nil || len(files) == 0 {
		t.Fatalf("lake files: %v %v", files, err)
	}
	feed := files[0]
	day1 := filepath.Join(dir, "day1")
	day2 := filepath.Join(dir, "day2")
	for _, d := range []string{day1, day2} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	copyTo := func(dst string) {
		data, err := os.ReadFile(feed)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, filepath.Base(feed)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	copyTo(day1)
	writeShuffledColumns(t, feed, filepath.Join(day2, filepath.Base(feed)))

	reg := filepath.Join(dir, "rules.avr")
	out := run(0, "monitor", "-index", idx, "-registry", reg, "-m", "5", "register", day1)
	if !strings.Contains(out, "registered") || strings.Contains(out, "registered 0 ") {
		t.Fatalf("avmonitor register output: %s", out)
	}
	if _, err := os.Stat(reg); err != nil {
		t.Fatalf("registry not persisted: %v", err)
	}

	out = run(0, "monitor", "-index", idx, "-registry", reg, "replay", day1)
	if !strings.Contains(out, "all batches accepted") {
		t.Fatalf("clean replay output: %s", out)
	}
	out = run(1, "monitor", "-index", idx, "-registry", reg, "replay", day2)
	if !strings.Contains(out, "alarm") {
		t.Fatalf("drifted replay should alarm: %s", out)
	}

	// Re-registering appends versions rather than overwriting.
	out = run(0, "monitor", "-index", idx, "-registry", reg, "-m", "5", "register", day1)
	if !strings.Contains(out, "v2 ") {
		t.Fatalf("re-registration should bump to v2: %s", out)
	}

	// Unknown commands and missing registries are usage/operational
	// failures, not alarms.
	run(2, "monitor", "-index", idx, "frobnicate", day1)
	run(3, "monitor", "-index", idx, "-registry", filepath.Join(dir, "absent.avr"), "replay", day1)
}

// TestAvserveEndToEnd drives the serving layer the way a deployment
// would: build an index offline, start avserve on it, infer a rule over
// HTTP, validate a clean batch (passes) and a drifted batch (alarms),
// and confirm the second identical inference is served from the rule
// cache.
func TestAvserveEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	dir := t.TempDir()
	av := filepath.Join(dir, "av")
	if out, err := exec.Command("go", "build", "-o", av, "./cmd/av").CombinedOutput(); err != nil {
		t.Fatalf("building av: %v\n%s", err, out)
	}

	lake := filepath.Join(dir, "lake")
	if out, err := exec.Command(av, "gen", "-profile", "enterprise", "-tables", "40", "-seed", "3", "-out", lake).CombinedOutput(); err != nil {
		t.Fatalf("avgen: %v\n%s", err, out)
	}
	idx := filepath.Join(dir, "lake.idx")
	if out, err := exec.Command(av, "index", "-corpus", lake, "-out", idx).CombinedOutput(); err != nil {
		t.Fatalf("avindex: %v\n%s", err, out)
	}

	// Start the service on an ephemeral port and scrape it from stdout.
	cmd := exec.Command(av, "serve", "-index", idx, "-addr", "127.0.0.1:0", "-m", "5")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()
	var base string
	scanner := bufio.NewScanner(stdout)
	for scanner.Scan() {
		if addr, ok := strings.CutPrefix(scanner.Text(), "avserve: listening on "); ok {
			base = "http://" + addr
			break
		}
	}
	if base == "" {
		t.Fatalf("avserve never announced its address: %v", scanner.Err())
	}

	// Training and batch data come from one generated feed column.
	files, err := filepath.Glob(filepath.Join(lake, "*.csv"))
	if err != nil || len(files) == 0 {
		t.Fatalf("lake files: %v %v", files, err)
	}
	tbl, err := autovalidate.LoadTable(files[0])
	if err != nil {
		t.Fatal(err)
	}
	train := tbl.Columns[0].Values
	drifted := append(append([]string{}, train...), tbl.Columns[1].Values...)

	post := func(path string, body map[string]any) (int, map[string]any) {
		t.Helper()
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(base+path, "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("POST %s: decoding: %v", path, err)
		}
		return resp.StatusCode, out
	}

	code, inf := post("/infer", map[string]any{"values": train})
	if code != http.StatusOK {
		t.Fatalf("/infer: status %d: %v", code, inf)
	}
	fp, _ := inf["fingerprint"].(string)
	if fp == "" || inf["rule"] == nil {
		t.Fatalf("/infer response incomplete: %v", inf)
	}
	if cached, _ := inf["cached"].(bool); cached {
		t.Error("first inference reported as cached")
	}

	code, again := post("/infer", map[string]any{"values": train})
	if code != http.StatusOK || again["cached"] != true {
		t.Errorf("repeat /infer should hit the cache: status %d, %v", code, again)
	}

	code, clean := post("/validate", map[string]any{"fingerprint": fp, "values": train})
	if code != http.StatusOK {
		t.Fatalf("/validate clean: status %d: %v", code, clean)
	}
	if alarm := clean["report"].(map[string]any)["Alarm"]; alarm != false {
		t.Errorf("training column alarmed against its own rule: %v", clean)
	}

	code, bad := post("/validate", map[string]any{"fingerprint": fp, "values": drifted})
	if code != http.StatusOK {
		t.Fatalf("/validate drifted: status %d: %v", code, bad)
	}
	report := bad["report"].(map[string]any)
	if report["Alarm"] != true {
		t.Errorf("drifted batch did not alarm: %v", report)
	}
}

// writeShuffledColumns writes a copy of the CSV with the column order
// rotated by one but the header left unchanged — the §5.3 schema drift.
func writeShuffledColumns(t *testing.T, src, dst string) {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	var sb strings.Builder
	for i, line := range lines {
		if i == 0 {
			sb.WriteString(line)
		} else {
			cells := strings.Split(line, ",")
			rotated := append(cells[1:], cells[0])
			sb.WriteString(strings.Join(rotated, ","))
		}
		sb.WriteByte('\n')
	}
	if err := os.WriteFile(dst, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}
