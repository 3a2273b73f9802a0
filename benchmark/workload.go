package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"autovalidate/internal/datagen"
	"autovalidate/internal/service"
)

// Request encodings of a check batch.
const (
	encJSON   = "application/json"
	encCSV    = "text/csv"
	encNDJSON = "application/x-ndjson"
)

const (
	numStreams = 16
	// trainValues is the head of each stream column the rule is learned
	// from; the tail is cut into cleanBatches batches replayed cyclically.
	trainValues  = 100
	cleanBatches = 4
	// The drift cycle: driftClean clean batches, then driftDirty in which
	// one value in driftEvery (5 %) is foreign. Five dirty batches stay
	// below the monitor's ReinferAfter=6, so no rule is ever re-learned
	// and a follower (which cannot re-infer) behaves exactly like the
	// leader.
	driftClean = 11
	driftDirty = 5
	driftEvery = 20
	// inferTrain values of each onboarded column are posted to /infer; the
	// rule must then accept the inferHoldout values that follow them.
	inferTrain   = 100
	inferHoldout = 200
	// ingestRows is the length of an ingested table's columns.
	ingestRows = 150
)

// streamDomains are registered twice over (16 streams). Each has a
// fixed or per-column-fixed shape, so a rule learned from 100 values
// holds for the rest of the same column, and each is learned without a
// horizontal cut: the monitor tolerates non-conformance up to the
// rule's estimated FPR or training rate, which stayed below 1 % for
// these on seeds 1-40, so a 5 % drift always alarms. The issue's
// hash_hex and session_id are learned with a horizontal cut and a
// tolerance of up to 10 % on most seeds, and rightly accepted a 5 %
// drift; hex_id16 and locale stand in for them.
var streamDomains = []string{
	"timestamp_us", "guid", "ipv4", "date_iso",
	"hex_id16", "locale", "version", "machine_host",
}

// ingestDomains are the columns of every ingested table, a third of
// them natural language as in the Enterprise lake. The issue ingests
// datagen.Enterprise(1, seed) tables; their 6-16 columns of 60-300 rows
// over random domains make one table cost several times the next, and
// the median of a run's few ingests then moves by a third from seed to
// seed. With the shape pinned only the values vary.
var ingestDomains = []string{
	"timestamp_24h", "guid", "ipv4", "int_plain", "float_metric", "kv_metric", "locale",
	"nl_company", "nl_address", "nl_notes",
}

// inferDomains are the columns of one onboarded table.
var inferDomains = []string{
	"timestamp_us", "guid", "ipv4", "time_ampm", "machine_host", "date_iso", "locale",
}

// spec is one workload's shape; BENCHMARK.json says why each was chosen.
type spec struct {
	name string
	// batch is the number of values per check batch (and sizes the
	// stream columns); encodings are assigned to streams round-robin.
	batch     int
	encodings []string
	drift     bool
	// infer marks the onboarding workload: the streams are registered
	// but idle, client A posts tables to /infer and client B to /ingest.
	infer bool
}

var specs = []spec{
	{name: "check_large", batch: 20000, encodings: []string{encCSV, encNDJSON}},
	{name: "check_small", batch: 50, encodings: []string{encJSON}},
	{name: "check_drift", batch: 2000, encodings: []string{encCSV}, drift: true},
	{name: "infer_ingest", batch: 100, infer: true},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// op is one request of the schedule with what the checker expects back.
type op struct {
	path        string
	contentType string
	body        []byte
	// values are the batch as the kernels below the handler take it.
	values []string
	// stream indexes schedule.streams for check ops.
	stream int
	// expect is the monitor action a check must answer with.
	expect string
	// holdout is the tail of an inferred column the rule must accept.
	holdout []string
}

// streamPlan is one registered stream: a single generated column whose
// head trains the rule and whose tail is replayed as batches.
type streamPlan struct {
	name   string
	domain string
	train  []string
	// cycle is the stream's batch sequence, replayed from position 0.
	cycle []op
}

// schedule is everything a workload sends, as a pure function of
// (workload, seed).
type schedule struct {
	spec    spec
	seed    int64
	streams []streamPlan
}

// columnSeed spreads the workload seed so that no two generated columns
// of a run share a generator seed.
func columnSeed(seed int64, kind, k int) int64 {
	return seed*1_000_003 + int64(kind)*100_003 + int64(k)
}

const (
	kindStream = iota + 1
	kindInfer
	kindIngest
)

func buildSchedule(sp spec, seed int64) (*schedule, error) {
	sc := &schedule{spec: sp, seed: seed, streams: make([]streamPlan, numStreams)}
	columns := make([][]string, numStreams)
	for i := range columns {
		domain := streamDomains[i%len(streamDomains)]
		// One FreshColumn call per stream: a second call re-draws the
		// per-column parameters (version's major, machine_host's data centre) and
		// yields a different column that the monitor rightly alarms on.
		col, err := datagen.FreshColumn(domain, trainValues+cleanBatches*sp.batch, columnSeed(seed, kindStream, i))
		if err != nil {
			return nil, err
		}
		columns[i] = col
		sc.streams[i] = streamPlan{
			name:   fmt.Sprintf("s%02d-%s", i, domain),
			domain: domain,
			train:  col[:trainValues],
		}
	}
	for i := range sc.streams {
		st := &sc.streams[i]
		enc := encJSON
		if len(sp.encodings) > 0 {
			enc = sp.encodings[i%len(sp.encodings)]
		}
		clean := func(b int) []string {
			lo := trainValues + (b%cleanBatches)*sp.batch
			return columns[i][lo : lo+sp.batch]
		}
		positions := cleanBatches
		if sp.drift {
			positions = driftClean + driftDirty
		}
		for p := 0; p < positions; p++ {
			values, expect := clean(p), "accept"
			if sp.drift && p >= driftClean {
				values = dirty(values, columns[(i+3)%numStreams][trainValues:], p*len(values))
				// Two alarms, then QuarantineAfter=3 consecutive ones.
				expect = "alarm"
				if p-driftClean >= 2 {
					expect = "quarantine"
				}
			}
			body, err := encodeBatch(enc, values)
			if err != nil {
				return nil, err
			}
			st.cycle = append(st.cycle, op{
				path:        "/streams/" + st.name + "/check",
				contentType: enc,
				body:        body,
				values:      values,
				stream:      i,
				expect:      expect,
			})
		}
	}
	return sc, nil
}

// dirty returns a copy of values in which every driftEvery-th value is
// replaced by one of foreign (another domain's column), starting at
// offset so that successive dirty batches differ.
func dirty(values, foreign []string, offset int) []string {
	out := append([]string(nil), values...)
	for j := 0; j < len(out); j += driftEvery {
		out[j] = foreign[(offset+j)%len(foreign)]
	}
	return out
}

// checkOp returns the n-th operation of a client that owns the streams
// [first, first+count): it walks them in order, so every stream sees
// its cycle in order.
func (sc *schedule) checkOp(first, count, n int) *op {
	st := &sc.streams[first+n%count]
	return &st.cycle[(n/count)%len(st.cycle)]
}

// inferOp returns column k of the onboarding sequence (table k/7,
// column k%7). Every column has its own seed, so no two posts share a
// fingerprint and the rule cache never hits.
func (sc *schedule) inferOp(k int) (*op, error) {
	domain := inferDomains[k%len(inferDomains)]
	col, err := datagen.FreshColumn(domain, inferTrain+inferHoldout, columnSeed(sc.seed, kindInfer, k))
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(service.InferRequest{Values: col[:inferTrain]})
	if err != nil {
		return nil, fmt.Errorf("encoding infer request: %w", err)
	}
	return &op{
		path:        "/infer",
		contentType: encJSON,
		body:        body,
		values:      col[:inferTrain],
		holdout:     col[inferTrain:],
	}, nil
}

// ingestTable generates the k-th arriving table.
func (sc *schedule) ingestTable(k int) (service.IngestRequest, error) {
	tbl := service.IngestTable{Name: fmt.Sprintf("arrival_%05d", k)}
	for i, domain := range ingestDomains {
		values, err := datagen.FreshColumn(domain, ingestRows, columnSeed(sc.seed, kindIngest, k*len(ingestDomains)+i))
		if err != nil {
			return service.IngestRequest{}, err
		}
		tbl.Columns = append(tbl.Columns, service.IngestColumn{Name: domain, Values: values})
	}
	return service.IngestRequest{Tables: []service.IngestTable{tbl}}, nil
}

func (sc *schedule) ingestOp(k int) (*op, error) {
	req, err := sc.ingestTable(k)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("encoding ingest request: %w", err)
	}
	return &op{path: "/ingest", contentType: encJSON, body: body}, nil
}

// encodeBatch renders a batch in one of the three request encodings.
func encodeBatch(enc string, values []string) ([]byte, error) {
	var buf bytes.Buffer
	switch enc {
	case encJSON:
		b, err := json.Marshal(service.StreamCheckRequest{Values: values})
		if err != nil {
			return nil, fmt.Errorf("encoding check request: %w", err)
		}
		return b, nil
	case encCSV:
		for _, v := range values {
			if v == "" || strings.ContainsAny(v, ",\"\r\n") {
				buf.WriteByte('"')
				buf.WriteString(strings.ReplaceAll(v, `"`, `""`))
				buf.WriteByte('"')
			} else {
				buf.WriteString(v)
			}
			buf.WriteByte('\n')
		}
	case encNDJSON:
		for _, v := range values {
			b, err := json.Marshal(v)
			if err != nil {
				return nil, fmt.Errorf("encoding NDJSON value: %w", err)
			}
			buf.Write(b)
			buf.WriteByte('\n')
		}
	default:
		return nil, fmt.Errorf("unknown encoding %q", enc)
	}
	return buf.Bytes(), nil
}
