package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// digest hashes everything the schedule would send: registrations, one
// full cycle per stream and, for the onboarding workload, its first
// tables. Equal digests mean byte-identical request sequences.
func (sc *schedule) digest() (string, error) {
	h := sha256.New()
	for _, st := range sc.streams {
		fmt.Fprintf(h, "%s\x00%s\x00", st.name, strings.Join(st.train, "\x00"))
		for _, o := range st.cycle {
			fmt.Fprintf(h, "%s\x00%s\x00%s\x00", o.path, o.contentType, o.expect)
			h.Write(o.body)
		}
	}
	if sc.spec.infer {
		for k := 0; k < 3*len(inferDomains); k++ {
			o, err := sc.inferOp(k)
			if err != nil {
				return "", err
			}
			h.Write(o.body)
		}
		for k := 0; k < 3; k++ {
			o, err := sc.ingestOp(k)
			if err != nil {
				return "", err
			}
			h.Write(o.body)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	for _, sp := range specs {
		digest := func(seed int64) string {
			sc, err := buildSchedule(sp, seed)
			if err != nil {
				t.Fatal(err)
			}
			d, err := sc.digest()
			if err != nil {
				t.Fatal(err)
			}
			return d
		}
		one := digest(1)
		if again := digest(1); again != one {
			t.Errorf("%s: seed 1 gave two different schedules", sp.name)
		}
		if two := digest(2); two == one {
			t.Errorf("%s: seeds 1 and 2 gave the same schedule", sp.name)
		}
	}
}

func TestDriftCycleExpectations(t *testing.T) {
	sp, _ := specByName("check_drift")
	sc, err := buildSchedule(sp, 1)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, o := range sc.streams[5].cycle {
		counts[o.expect]++
	}
	if counts["accept"] != 11 || counts["alarm"] != 2 || counts["quarantine"] != 3 {
		t.Errorf("cycle expects %v, want accept×11, alarm×2, quarantine×3", counts)
	}
	// A client walks its 8 streams in order, each through its cycle in order.
	for n := 0; n < 8*16*2; n++ {
		o := sc.checkOp(8, 8, n)
		if want := &sc.streams[8+n%8].cycle[(n/8)%16]; o != want {
			t.Fatalf("operation %d of client 1 is %s, want %s", n, o.path, want.path)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {90, 4.6}, {100, 5}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestTailPercentile(t *testing.T) {
	// The highest percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0}, {19, 0}, {20, 50}, {99, 75}, {100, 90}, {200, 95}, {1000, 99}, {10000, 99.9}, {100000, 99.99}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuartileSpreadIsPythons(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-9 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

func TestSelfTimesTelescope(t *testing.T) {
	// One operation, three nested layers of 10, 6 and 1 ms, replayed one
	// after another: self times 4, 5, 1 sum to the outermost span.
	tr := newTracer()
	ms := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	a := tr.add("a", 1, 0, 0, ms(10))
	b := tr.add("b", 1, a, ms(10), ms(16))
	tr.add("c", 1, b, ms(16), ms(17))
	// A second operation, twice as slow throughout.
	a = tr.add("a", 2, 0, ms(20), ms(40))
	b = tr.add("b", 2, a, ms(40), ms(52))
	tr.add("c", 2, b, ms(52), ms(54))

	self := selfTimes(tr.spans)
	want := map[string][]float64{"a": {4, 8}, "b": {5, 10}, "c": {1, 2}}
	for name, ws := range want {
		for i, w := range ws {
			if got := self[name][i]; got.opID != i+1 || math.Abs(got.ms-w) > 1e-9 {
				t.Errorf("self time of %s in operation %d = %+v, want %v", name, i+1, got, w)
			}
		}
	}
	for op := 0; op < 2; op++ {
		sum := self["a"][op].ms + self["b"][op].ms + self["c"][op].ms
		if total := (tr.spans[3*op].EndUS - tr.spans[3*op].StartUS) / 1e3; math.Abs(sum-total) > 1e-9 {
			t.Errorf("operation %d: self times sum to %v, its outermost span is %v", op+1, sum, total)
		}
	}
}

func TestStratifiedMedian(t *testing.T) {
	times := []opTime{{1, 1}, {2, 100}, {3, 2}, {4, 200}, {5, 3}, {6, 300}, {7, 9}}
	odd := func(opID int) int { return opID % 2 }
	// Odd operations {1,2,3,9} have median 2.5, even {100,200,300} 200.
	if got, want := stratifiedMedian(times, odd), (2.5*4+200*3)/7; math.Abs(got-want) > 1e-9 {
		t.Errorf("stratifiedMedian = %v, want %v", got, want)
	}
}

// testContract is the repository's BENCHMARK.json; loading it also
// checks that it names the program's workloads.
func testContract(t *testing.T) *contract {
	t.Helper()
	ct, err := loadContract(filepath.Join("..", contractFile))
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

// smokeLake is built once for all smoke runs; a service never mutates
// the index it is given.
var smokeLake = sync.OnceValue(func() *lake { return buildLake(1) })

// smoke measures a 1 s window of the workload on a cluster over the
// shared lake, with the checker on. That every declared metric is
// measured, and no other, is newResult's check.
func smoke(t *testing.T, name string, traced bool) *result {
	t.Helper()
	if testing.Short() {
		t.Skip("stands up the cluster")
	}
	sp, ok := specByName(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	sc, err := buildSchedule(sp, 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	start := time.Now()
	c, err := startCluster(smokeLake(), sc, filepath.Join(dir, "cluster"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := measure(runConfig{
		contract: testContract(t), spec: sp, seed: 1, window: time.Second, traced: traced,
		dir: dir, traceOut: filepath.Join(dir, "trace.jsonl"),
	}, sc, smokeLake(), c, time.Since(start).Seconds())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("%s: correct %t, %d of %d operations failed", name, res.Correct, res.Failed, res.Attempted)
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s = %v", name, m.Value)
		}
	}
	return res
}

func TestSmoke(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			res := smoke(t, sp.name, false)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %v, want a positive number", name, m.Value)
				}
			}
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	res := smoke(t, "check_drift", true)
	value := func(name string) float64 { return res.Metrics[name].Value }
	if got, want := value("monitor.nonaccept_ratio"), 5.0/16; got != want {
		t.Errorf("monitor.nonaccept_ratio = %v, want the schedule's %v", got, want)
	}
	// Timings are not asserted on: other packages' tests share the cores.
	if got := value("loadgen.self_sum_ratio"); got <= 0 {
		t.Errorf("loadgen.self_sum_ratio = %v, want a positive ratio", got)
	}
	if got := value("validate.batch_allocs_per_op"); got != 0 {
		t.Errorf("validate.batch_allocs_per_op = %v, want 0", got)
	}
	if got := value("service.cache_hit_ratio"); got != 0 {
		t.Errorf("service.cache_hit_ratio = %v, want 0 (no /infer in this workload)", got)
	}
}

// TestFixedPortsSpreadStreamsEvenly holds the reason for the fixed
// ports: the gateway homes half of each client's streams on each member.
func TestFixedPortsSpreadStreamsEvenly(t *testing.T) {
	if testing.Short() {
		t.Skip("stands up the cluster")
	}
	sp, _ := specByName("check_small")
	sc, err := buildSchedule(sp, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := startCluster(smokeLake(), sc, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := c.close(); err != nil {
			t.Error(err)
		}
	}()
	onLeader := make([]int, checkClients)
	for i, st := range sc.streams {
		resp, err := http.Get(c.gwURL.String() + "/streams/" + st.name)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.Header.Get("X-Autovalidate-Member") == c.leader.url.String() {
			onLeader[i/(numStreams/checkClients)]++
		}
	}
	for client, n := range onLeader {
		if want := numStreams / checkClients / 2; n != want {
			t.Errorf("client %d has %d of its streams on the leader, want %d", client, n, want)
		}
	}
}
