package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"autovalidate/internal/service"
)

const (
	// checkClients closed-loop clients drive the check workloads: callers
	// are pipelines that block on the verdict, and with two of them a
	// request always has another to wait behind or to overlap its fsync.
	checkClients = 2
	// ingestEvery is the open-loop ingest schedule of infer_ingest.
	ingestEvery = 500 * time.Millisecond
)

// sample is one request as the client saw it, in time since the run's
// epoch.
type sample struct {
	start, end time.Duration
	values     int
	bodyBytes  int
	failed     bool
	nonAccept  bool
}

// ingestSample is one /ingest: due is when the schedule wanted it sent.
type ingestSample struct {
	due, sent, end time.Duration
	// catchUp is how long after the ack the follower served the new
	// generation.
	catchUp time.Duration
	failed  bool
}

// loadClient is one caller: its own connection pool and log.
type loadClient struct {
	http    *http.Client
	base    string
	epoch   time.Time
	reply   bytes.Buffer
	samples []sample
}

func newLoadClient(base string, epoch time.Time) *loadClient {
	return &loadClient{
		http:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}, Timeout: 30 * time.Second},
		base:  base,
		epoch: epoch,
	}
}

func (lc *loadClient) close() { lc.http.CloseIdleConnections() }

// post sends o and returns the status with the body left in lc.reply.
// The caller times it; nothing here but the request itself.
func (lc *loadClient) post(o *op) (int, error) {
	req, err := http.NewRequest(http.MethodPost, lc.base+o.path, bytes.NewReader(o.body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", o.contentType)
	resp, err := lc.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	lc.reply.Reset()
	if _, err := lc.reply.ReadFrom(resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// timed posts o, logs the sample and returns it for the checker to mark.
func (lc *loadClient) timed(o *op) (*sample, int, error) {
	start := time.Since(lc.epoch)
	status, err := lc.post(o)
	end := time.Since(lc.epoch)
	lc.samples = append(lc.samples, sample{start: start, end: end, values: len(o.values), bodyBytes: len(o.body)})
	return &lc.samples[len(lc.samples)-1], status, err
}

// checkReply is the part of a StreamCheckResponse the checker reads.
type checkReply struct {
	Decision struct {
		Verdict struct {
			Action string `json:"action"`
		} `json:"verdict"`
	} `json:"decision"`
}

// verifyCheck marks s failed unless the reply is a 200 carrying the
// action the schedule expects.
func verifyCheck(s *sample, o *op, status int, reply []byte, err error) {
	var r checkReply
	if err != nil || status != http.StatusOK || json.Unmarshal(reply, &r) != nil {
		s.failed = true
		return
	}
	s.nonAccept = r.Decision.Verdict.Action != "accept"
	s.failed = r.Decision.Verdict.Action != o.expect
}

// verifyInfer marks s failed unless the reply is a 200 with a freshly
// inferred rule that does not alarm on the column's held-out tail.
func verifyInfer(s *sample, o *op, status int, reply []byte, err error) {
	var r service.InferResponse
	if err != nil || status != http.StatusOK || json.Unmarshal(reply, &r) != nil || r.Cached || r.Rule == nil {
		s.failed = true
		return
	}
	rep, err := r.Rule.Validate(o.holdout)
	s.failed = err != nil || rep.Alarm
}

// runChecks is one closed-loop check client over streams
// [first, first+count) until the deadline.
func (lc *loadClient) runChecks(sc *schedule, first, count int, deadline time.Duration) {
	for n := 0; time.Since(lc.epoch) < deadline; n++ {
		o := sc.checkOp(first, count, n)
		s, status, err := lc.timed(o)
		verifyCheck(s, o, status, lc.reply.Bytes(), err)
	}
}

// runInfers onboards tables in a closed loop: one operation is the
// sequential cold /infer of a table's columns.
func (lc *loadClient) runInfers(sc *schedule, deadline time.Duration) error {
	for k := 0; time.Since(lc.epoch) < deadline; k += len(inferDomains) {
		table := make([]*op, len(inferDomains))
		for j := range table {
			o, err := sc.inferOp(k + j)
			if err != nil {
				return err
			}
			table[j] = o
		}
		for _, o := range table {
			s, status, err := lc.timed(o)
			verifyInfer(s, o, status, lc.reply.Bytes(), err)
		}
	}
	return nil
}

// ingest posts table k, due at the given time, and waits for the
// follower to serve the generation the leader acknowledged.
func (lc *loadClient) ingest(c *testCluster, sc *schedule, k int, due time.Duration) (ingestSample, error) {
	o, err := sc.ingestOp(k)
	if err != nil {
		return ingestSample{}, err
	}
	time.Sleep(due - time.Since(lc.epoch))
	is := ingestSample{due: due, sent: time.Since(lc.epoch)}
	status, err := lc.post(o)
	is.end = time.Since(lc.epoch)
	var r service.IngestResponse
	if err != nil || status != http.StatusOK || json.Unmarshal(lc.reply.Bytes(), &r) != nil {
		is.failed = true
		return is, nil
	}
	for limit := is.end + 5*time.Second; c.follower.svc.Generation() < r.Generation; {
		if time.Since(lc.epoch) > limit {
			is.failed = true
			return is, nil
		}
		time.Sleep(time.Millisecond)
	}
	is.catchUp = time.Since(lc.epoch) - is.end
	return is, nil
}

// counters are the program's own counts, read before and after the
// window; a loadResult carries their difference.
type counters struct {
	proxied     map[string]float64 // by member URL
	failovers   float64
	cacheHits   float64
	cacheMisses float64
	appended    float64
	mem         runtime.MemStats
}

func readCounters(c *testCluster) (counters, error) {
	var ct counters
	req, err := http.NewRequest(http.MethodGet, c.gwURL.String()+"/gateway/metrics", nil)
	if err != nil {
		return ct, fmt.Errorf("reading gateway metrics: %w", err)
	}
	status, body, err := do(http.DefaultClient, req)
	if err != nil {
		return ct, fmt.Errorf("reading gateway metrics: %w", err)
	}
	if status != http.StatusOK {
		return ct, fmt.Errorf("reading gateway metrics: status %d", status)
	}
	ct.proxied = map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		name, rest, ok := strings.Cut(line, "{")
		if !ok {
			continue
		}
		labels, value, ok := strings.Cut(rest, "} ")
		v, err := strconv.ParseFloat(value, 64)
		if !ok || err != nil {
			continue
		}
		switch name {
		case "autovalidate_gateway_proxied_requests_total":
			ct.proxied[strings.Trim(strings.TrimPrefix(labels, "member="), `"`)] = v
		case "autovalidate_gateway_failovers_total":
			ct.failovers += v
		}
	}
	for _, m := range []*member{c.leader, c.follower} {
		st := m.svc.CurrentStats()
		ct.cacheHits += float64(st.CacheHits)
		ct.cacheMisses += float64(st.CacheMisses)
		ct.appended += float64(m.jrn.Appended())
	}
	runtime.ReadMemStats(&ct.mem)
	return ct, nil
}

// loadResult is what one warm-up + window produced.
type loadResult struct {
	window    time.Duration
	samples   [][]sample // per client, in send order, window and warm-up
	ingests   []ingestSample
	t0, t1    time.Duration
	pre, post counters
}

// runLoad drives the workload against c: warm-up, then the measured
// window. Clients run straight through both, so every stream sees its
// cycle in order from position 0.
func runLoad(c *testCluster, sc *schedule, warmup, window time.Duration) (*loadResult, error) {
	res := &loadResult{window: window, t0: warmup, t1: warmup + window}
	epoch := time.Now()
	base := c.gwURL.String()

	var wg sync.WaitGroup
	errs := make([]error, checkClients)
	clients := make([]*loadClient, checkClients)
	for i := range clients {
		clients[i] = newLoadClient(base, epoch)
		defer clients[i].close()
	}
	wg.Add(1)
	var counterErr error
	go func() { // window-edge snapshots
		defer wg.Done()
		time.Sleep(res.t0 - time.Since(epoch))
		if res.pre, counterErr = readCounters(c); counterErr != nil {
			return
		}
		time.Sleep(res.t1 - time.Since(epoch))
		res.post, counterErr = readCounters(c)
	}()
	if sc.spec.infer {
		wg.Add(2)
		go func() {
			defer wg.Done()
			errs[0] = clients[0].runInfers(sc, res.t1)
		}()
		go func() {
			defer wg.Done()
			for k := 0; ; k++ {
				due := time.Duration(k) * ingestEvery
				if due >= res.t1 {
					return
				}
				is, err := clients[1].ingest(c, sc, k, due)
				if err != nil {
					errs[1] = err
					return
				}
				res.ingests = append(res.ingests, is)
			}
		}()
	} else {
		per := numStreams / checkClients
		for i, lc := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				lc.runChecks(sc, i*per, per, res.t1)
			}()
		}
	}
	wg.Wait()
	if err := errors.Join(append(errs, counterErr)...); err != nil {
		return nil, err
	}
	for _, lc := range clients {
		res.samples = append(res.samples, lc.samples)
	}
	return res, nil
}
