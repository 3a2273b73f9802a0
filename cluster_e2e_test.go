package autovalidate_test

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestClusterEndToEnd stands up a real 3-process cluster — an avserve
// leader, an avserve follower, and an avgateway over both — and drives
// it the way an operator would: validate through the gateway, register
// a stream (consistent-hashed to one member), ingest new tables on the
// leader, and watch the follower converge to the leader's index
// generation within the delta-poll interval.
func TestClusterEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and starts processes; skipped in -short")
	}
	dir := t.TempDir()
	av := filepath.Join(dir, "av")
	if out, err := exec.Command("go", "build", "-o", av, "./cmd/av").CombinedOutput(); err != nil {
		t.Fatalf("building av: %v\n%s", err, out)
	}

	// Lake + index, exactly as the single-node pipeline would.
	lake := filepath.Join(dir, "lake")
	if out, err := exec.Command(av, "gen", "-profile", "enterprise", "-tables", "40", "-seed", "3", "-out", lake).CombinedOutput(); err != nil {
		t.Fatalf("avgen: %v\n%s", err, out)
	}
	idx := filepath.Join(dir, "lake.idx")
	if out, err := exec.Command(av, "index", "-corpus", lake, "-out", idx, "-tau", "8").CombinedOutput(); err != nil {
		t.Fatalf("avindex: %v\n%s", err, out)
	}

	// startProc launches a server process and extracts its listen
	// address from the "listening on" line. stderr (the structured JSON
	// log stream) is captured to <logName>.stderr.log so assertions can
	// grep for trace IDs and failures can ship the logs as artifacts.
	stderrLog := func(logName string) string { return filepath.Join(dir, logName+".stderr.log") }
	startProc := func(logName, name string, args ...string) (addr string) {
		t.Helper()
		cmd := exec.Command(av, append([]string{name}, args...)...)
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		errFile, err := os.Create(stderrLog(logName))
		if err != nil {
			t.Fatal(err)
		}
		cmd.Stderr = errFile
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting %s: %v", name, err)
		}
		t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait(); errFile.Close() })
		sc := bufio.NewScanner(stdout)
		deadline := time.After(30 * time.Second)
		lineCh := make(chan string, 16)
		go func() {
			for sc.Scan() {
				lineCh <- sc.Text()
			}
			close(lineCh)
		}()
		for {
			select {
			case line, ok := <-lineCh:
				if !ok {
					t.Fatalf("%s exited before reporting a listen address", name)
				}
				if i := strings.Index(line, "listening on "); i >= 0 {
					// Keep draining stdout so the process never blocks
					// on a full pipe.
					go func() {
						for range lineCh {
						}
					}()
					return strings.TrimSpace(line[i+len("listening on "):])
				}
			case <-deadline:
				t.Fatalf("%s did not report a listen address", name)
			}
		}
	}

	// Each member keeps its own drift-forensics journal: the gateway's
	// /cluster/events must find an alarm on whichever member the ring
	// pinned the stream to.
	journalDir := func(logName string) string { return filepath.Join(dir, logName+"-journal") }
	leaderAddr := startProc("leader", "serve", "-index", idx, "-leader", "-m", "5",
		"-journal", journalDir("leader"),
		"-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0")
	leaderURL := "http://" + leaderAddr
	followerAddr := startProc("follower", "serve", "-follow", leaderURL, "-m", "5", "-poll", "200ms",
		"-journal", journalDir("follower"),
		"-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0")
	followerURL := "http://" + followerAddr
	gatewayAddr := startProc("gateway", "gateway", "-members", leaderURL+","+followerURL, "-check", "100ms",
		"-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0")
	gatewayURL := "http://" + gatewayAddr

	// On failure, snapshot each process's /debug/traces ring and logs
	// into $CLUSTER_E2E_ARTIFACTS (CI uploads the directory) so a flaky
	// run leaves its whole trace history behind.
	if artDir := os.Getenv("CLUSTER_E2E_ARTIFACTS"); artDir != "" {
		t.Cleanup(func() {
			if !t.Failed() {
				return
			}
			if err := os.MkdirAll(artDir, 0o755); err != nil {
				t.Logf("artifacts: %v", err)
				return
			}
			for name, base := range map[string]string{
				"leader": leaderURL, "follower": followerURL, "gateway": gatewayURL,
			} {
				if resp, err := http.Get(base + "/debug/traces"); err == nil {
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					os.WriteFile(filepath.Join(artDir, name+".traces.json"), body, 0o644)
				}
				if logs, err := os.ReadFile(stderrLog(name)); err == nil {
					os.WriteFile(filepath.Join(artDir, name+".stderr.log"), logs, 0o644)
				}
				// The raw journal segments travel too: avtail or a journal
				// replay can reconstruct the decision history offline.
				if src := journalDir(name); name != "gateway" {
					dst := filepath.Join(artDir, name+"-journal")
					if err := os.MkdirAll(dst, 0o755); err == nil {
						if err := os.CopyFS(dst, os.DirFS(src)); err != nil {
							t.Logf("artifacts: copying %s journal: %v", name, err)
						}
					}
				}
			}
		})
	}

	waitReady := func(base string) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for {
			resp, err := http.Get(base + "/readyz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never became ready", base)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	waitReady(leaderURL)
	waitReady(followerURL) // 200 only after the snapshot bootstrap

	files, err := filepath.Glob(filepath.Join(lake, "*.csv"))
	if err != nil || len(files) == 0 {
		t.Fatalf("lake files: %v %v", files, err)
	}

	postJSON := func(method, u string, body any) (int, map[string]any) {
		t.Helper()
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(method, u, bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, u, err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		out := map[string]any{}
		json.Unmarshal(raw, &out)
		return resp.StatusCode, out
	}

	// A training column from the lake: not every generated column admits
	// a pattern (natural-language ones don't), so probe the leader's
	// /infer for the first feasible one.
	var train []string
	for _, file := range files {
		for col := 0; col < 4 && train == nil; col++ {
			cand := csvColumn(t, file, col)
			if len(cand) < 20 {
				continue
			}
			if code, _ := postJSON(http.MethodPost, leaderURL+"/infer", map[string]any{"values": cand}); code == http.StatusOK {
				train = cand
			}
		}
		if train != nil {
			break
		}
	}
	if train == nil {
		t.Fatal("no patternable training column found in the lake")
	}

	// /validate through the gateway reaches both members round-robin;
	// every request must succeed.
	for i := 0; i < 6; i++ {
		code, out := postJSON(http.MethodPost, gatewayURL+"/validate", map[string]any{
			"train": train, "values": train,
		})
		if code != http.StatusOK {
			t.Fatalf("gateway validate %d = %d (%v)", i, code, out)
		}
	}

	// Register a stream through the gateway: consistent-hashed to one
	// member; if that member is the follower, the write proxies to the
	// leader and replicates back within one poll interval. The check
	// retries across that staleness bound — the documented consistency
	// model, not a workaround.
	if code, out := postJSON(http.MethodPut, gatewayURL+"/streams/feed", map[string]any{"train": train}); code != http.StatusOK {
		t.Fatalf("gateway stream put = %d (%v)", code, out)
	}
	checkDeadline := time.Now().Add(5 * time.Second) // poll is 200ms
	var checkHeader http.Header
	for {
		code, out, hdr := postJSONHdr(t, http.MethodPost, gatewayURL+"/streams/feed/check", map[string]any{"values": train})
		if code == http.StatusOK {
			checkHeader = hdr
			break
		}
		if code != http.StatusNotFound || time.Now().After(checkDeadline) {
			t.Fatalf("gateway stream check = %d (%v)", code, out)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// One checked batch is one trace: the gateway minted the trace ID
	// (stamped on the response), and the gateway proxy span, the
	// member's route-handler span, and the monitor-check span all hang
	// off it. Spans land in the ring just after the response is written,
	// so poll briefly.
	traceID := checkHeader.Get("X-Trace-Id")
	if len(traceID) != 32 {
		t.Fatalf("gateway response X-Trace-Id = %q, want a 32-hex trace ID", traceID)
	}
	memberURL := checkHeader.Get("X-Autovalidate-Member")
	if memberURL == "" {
		t.Fatal("gateway response missing X-Autovalidate-Member")
	}
	spanNames := func(base string) map[string]int {
		t.Helper()
		resp, err := http.Get(base + "/debug/traces?trace=" + traceID)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var dump struct {
			Spans []struct {
				Name string `json:"name"`
			} `json:"spans"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
			t.Fatal(err)
		}
		names := map[string]int{}
		for _, s := range dump.Spans {
			names[s.Name]++
		}
		return names
	}
	traceDeadline := time.Now().Add(5 * time.Second)
	for {
		gw := spanNames(gatewayURL)
		member := spanNames(memberURL)
		total := gw["gateway.proxy"] + member["POST /streams/{name}/check"] + member["monitor.check"]
		if gw["gateway.proxy"] >= 1 && member["POST /streams/{name}/check"] >= 1 &&
			member["monitor.check"] >= 1 && total >= 3 {
			break
		}
		if time.Now().After(traceDeadline) {
			t.Fatalf("trace %s incomplete: gateway spans %v, member spans %v", traceID, gw, member)
		}
		time.Sleep(50 * time.Millisecond)
	}
	// The same trace ID appears in the gateway's structured log line.
	waitLogContains := func(logName, needle string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			data, _ := os.ReadFile(stderrLog(logName))
			if strings.Contains(string(data), needle) {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s stderr log never mentioned %q", logName, needle)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	waitLogContains("gateway", traceID)

	// Drift forensics across the cluster: a garbage batch through the
	// gateway alarms on whichever member the ring pinned "feed" to, the
	// response carries the journal event ID, and the gateway's merged
	// /cluster/events serves that exact event — original trace ID, alarm
	// action, failure attribution — from exactly one member.
	garbage := make([]string, 25)
	for i := range garbage {
		garbage[i] = "!!drift-" + strings.Repeat("x", i%3) + "!!"
	}
	alarmCode, alarmOut, alarmHdr := postJSONHdr(t, http.MethodPost, gatewayURL+"/streams/feed/check", map[string]any{"values": garbage})
	if alarmCode != http.StatusOK {
		t.Fatalf("gateway garbage check = %d (%v)", alarmCode, alarmOut)
	}
	alarmTrace := alarmHdr.Get("X-Trace-Id")
	if len(alarmTrace) != 32 {
		t.Fatalf("garbage check X-Trace-Id = %q, want a 32-hex trace ID", alarmTrace)
	}
	alarmEventID, _ := alarmOut["event_id"].(float64)
	if alarmEventID <= 0 {
		t.Fatalf("garbage check response missing journal event_id: %v", alarmOut)
	}
	{
		resp, err := http.Get(gatewayURL + "/cluster/events?kind=decision&stream=feed&trace=" + alarmTrace)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var merged struct {
			Events []struct {
				ID      float64         `json:"id"`
				Action  string          `json:"action"`
				TraceID string          `json:"trace_id"`
				Member  string          `json:"member"`
				Detail  json.RawMessage `json:"detail"`
			} `json:"events"`
			Members int `json:"members"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&merged); err != nil {
			t.Fatal(err)
		}
		if merged.Members != 2 {
			t.Fatalf("/cluster/events answered by %d members, want 2", merged.Members)
		}
		if len(merged.Events) != 1 {
			t.Fatalf("trace %s matched %d cluster events, want exactly 1: %+v", alarmTrace, len(merged.Events), merged.Events)
		}
		ev := merged.Events[0]
		if ev.TraceID != alarmTrace || ev.ID != alarmEventID {
			t.Fatalf("cluster event (id=%v trace=%s) does not match the check response (id=%v trace=%s)",
				ev.ID, ev.TraceID, alarmEventID, alarmTrace)
		}
		if ev.Action != "alarm" {
			t.Fatalf("journaled action = %q, want alarm", ev.Action)
		}
		if ev.Member != leaderURL && ev.Member != followerURL {
			t.Fatalf("cluster event attributed to unknown member %q", ev.Member)
		}
		var detail struct {
			Verdict struct {
				Attribution *struct {
					Classes []json.RawMessage `json:"classes"`
				} `json:"attribution"`
			} `json:"verdict"`
		}
		if err := json.Unmarshal(ev.Detail, &detail); err != nil {
			t.Fatalf("decoding journaled decision detail: %v", err)
		}
		if detail.Verdict.Attribution == nil || len(detail.Verdict.Attribution.Classes) == 0 {
			t.Fatalf("journaled alarm carries no failure attribution: %s", ev.Detail)
		}
	}

	// Drive /validate through the gateway until the follower answers
	// one, then assert the gateway-originated trace ID shows up in the
	// follower's structured logs — cross-process correlation, the point
	// of propagating traceparent.
	followerTraceDeadline := time.Now().Add(10 * time.Second)
	for {
		code, _, hdr := postJSONHdr(t, http.MethodPost, gatewayURL+"/validate", map[string]any{
			"train": train, "values": train,
		})
		if code != http.StatusOK {
			t.Fatalf("gateway validate while hunting the follower = %d", code)
		}
		if hdr.Get("X-Autovalidate-Member") == followerURL {
			waitLogContains("follower", hdr.Get("X-Trace-Id"))
			break
		}
		if time.Now().After(followerTraceDeadline) {
			t.Fatal("round-robin never routed a /validate to the follower")
		}
	}

	// Ingest a second lake file on the leader and watch the follower
	// converge within the poll interval (plus margin).
	generation := func(base string) float64 {
		t.Helper()
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		g, _ := h["generation"].(float64)
		return g
	}
	if g := generation(followerURL); g != 0 {
		t.Fatalf("follower generation before ingest = %v, want 0", g)
	}
	arrival := csvColumn(t, files[1%len(files)], 0)
	code, out := postJSON(http.MethodPost, leaderURL+"/ingest", map[string]any{
		"tables": []map[string]any{{
			"name":    "arrival",
			"columns": []map[string]any{{"name": "c0", "values": arrival}},
		}},
	})
	if code != http.StatusOK {
		t.Fatalf("leader ingest = %d (%v)", code, out)
	}
	wantGen := generation(leaderURL)
	if wantGen != 1 {
		t.Fatalf("leader generation after ingest = %v, want 1", wantGen)
	}
	deadline := time.Now().Add(10 * time.Second) // poll is 200ms; leave CI margin
	for generation(followerURL) != wantGen {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at generation %v, leader at %v", generation(followerURL), wantGen)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// The gateway's member introspection sees both members healthy.
	resp, err := http.Get(gatewayURL + "/gateway/members")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var members struct {
		Members []struct {
			URL     string `json:"url"`
			Healthy bool   `json:"healthy"`
		} `json:"members"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&members); err != nil {
		t.Fatal(err)
	}
	if len(members.Members) != 2 {
		t.Fatalf("gateway reports %d members, want 2", len(members.Members))
	}
	for _, m := range members.Members {
		if !m.Healthy {
			t.Fatalf("member %s unhealthy at end of test", m.URL)
		}
	}
}

// postJSONHdr sends a JSON request and returns status, decoded body,
// and the response headers (for X-Trace-Id / X-Autovalidate-Member
// correlation assertions).
func postJSONHdr(t *testing.T, method, u string, body any) (int, map[string]any, http.Header) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(method, u, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, u, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	out := map[string]any{}
	json.Unmarshal(raw, &out)
	return resp.StatusCode, out, resp.Header
}

// csvColumn reads column i of a CSV file (skipping the header row).
func csvColumn(t *testing.T, path string, i int) []string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatalf("parsing %s: %v", path, err)
	}
	var vals []string
	for r, row := range rows {
		if r == 0 || i >= len(row) {
			continue
		}
		vals = append(vals, row[i])
	}
	return vals
}
