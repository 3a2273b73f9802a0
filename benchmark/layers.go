package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	"autovalidate/internal/core"
	"autovalidate/internal/corpus"
	"autovalidate/internal/index"
	"autovalidate/internal/journal"
	"autovalidate/internal/monitor"
	"autovalidate/internal/pattern"
	"autovalidate/internal/registry"
	"autovalidate/internal/tokens"
	"autovalidate/internal/validate"
)

const (
	// costColumns /infer columns (3 tables) and costTables /ingest tables
	// are what the standalone costs are taken over.
	costColumns = 21
	costTables  = 5
	// loopFor is how long a sub-microsecond call is repeated for.
	loopFor = 10 * time.Millisecond
)

// timeMS returns f's duration in milliseconds.
func timeMS(f func()) float64 {
	start := time.Now()
	f()
	return float64(time.Since(start)) / 1e6
}

// timeDirect times a handler-direct call that must answer 200.
func timeDirect(h http.Handler, o *op) (float64, error) {
	var status int
	var err error
	ms := timeMS(func() { status, _, err = serveDirect(h, o) })
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("handler-direct call answered %d", status)
	}
	return ms, nil
}

// perCallNS repeats f for loopFor and returns nanoseconds per call.
func perCallNS(f func()) float64 {
	calls := 0
	start := time.Now()
	for time.Since(start) < loopFor {
		f()
		calls++
	}
	return float64(time.Since(start)) / float64(calls)
}

// layerCosts times each package's exported entry points standalone, on
// this run's own rules, batches, columns and tables. They are costs of
// one call, not shares of a request: the vertical-cut search calls
// Enumerate, LookupPattern and Lex many times per column and is
// unexported, so it cannot be replayed from outside.
func layerCosts(lk *lake, sc *schedule, streams []registry.Stream, scratch *member, dir string) (map[string]float64, error) {
	m := map[string]float64{}
	if err := matcherCosts(m, sc, streams); err != nil {
		return nil, err
	}
	if err := journalCosts(m, sc, streams, filepath.Join(dir, "cost-journal")); err != nil {
		return nil, err
	}
	if err := inferCosts(m, lk, sc, scratch); err != nil {
		return nil, err
	}
	if err := indexCosts(m, lk, sc, scratch); err != nil {
		return nil, err
	}
	reg := scratch.svc.Registry()
	i := 0
	m["registry.get_ns"] = perCallNS(func() {
		reg.Get(streams[i%len(streams)].Name)
		i++
	})
	return m, nil
}

// dirtyBatch is stream i's first batch with foreign values mixed in, as
// check_drift sends it; built here so every workload has one to cost.
func dirtyBatch(sc *schedule, i int) []string {
	return dirty(sc.streams[i].cycle[0].values, sc.streams[(i+3)%numStreams].cycle[0].values, 0)
}

// matcherCosts covers pattern and validate: the batch kernel, the
// per-value backtracker, compilation and miss attribution.
func matcherCosts(m map[string]float64, sc *schedule, streams []registry.Stream) error {
	var kernelNS, matchNS, batchNS, values float64
	var compile, attribute []float64
	dfa := 0
	for i, st := range streams {
		rule := st.Rule
		prog := rule.Program()
		if prog.Mode() == "dfa" {
			dfa++
		}
		compile = append(compile, timeMS(func() { pattern.Compile(rule.Pattern) }))
		strs := sc.streams[i].cycle[0].values
		views := byteViews(strs)
		var idx [8]int
		kernelNS += perCallNS(func() { prog.CountMisses(views, idx[:0], len(idx)) })
		matchNS += perCallNS(func() {
			for _, v := range strs {
				rule.Pattern.Match(v)
			}
		})
		rep := validate.AcquireBatchReport()
		var err error
		batchNS += perCallNS(func() { err = rule.ValidateBatch(views, rep) })
		rep.Release()
		if err != nil {
			return fmt.Errorf("Rule.ValidateBatch of %s: %w", st.Name, err)
		}
		values += float64(len(strs))
		bad := byteViews(dirtyBatch(sc, i))
		attribute = append(attribute, timeMS(func() { rule.Attribute(bad, validate.MaxAttributionSamples) }))
	}
	m["pattern.count_misses_ns_per_value"] = kernelNS / values
	m["pattern.match_ns_per_value"] = matchNS / values
	m["pattern.dfa_value_share"] = float64(dfa) / float64(len(streams))
	m["pattern.compile_ms"] = median(compile)
	m["validate.values_per_s"] = values / batchNS * 1e9
	m["validate.attribute_ms"] = median(attribute)
	return nil
}

// journalCosts appends real decisions (an alarm with its attribution)
// to a journal of its own: the fsync is the cost.
func journalCosts(m map[string]float64, sc *schedule, streams []registry.Stream, dir string) (err error) {
	jrn, err := journal.Open(dir, journal.Options{})
	if err != nil {
		return fmt.Errorf("opening cost journal: %w", err)
	}
	defer func() { err = errors.Join(err, jrn.Close()) }()
	engine := monitor.NewEngine(monitor.DefaultPolicy())
	var appends []float64
	for i, st := range streams {
		dec, err := engine.CheckBytes(st, byteViews(dirtyBatch(sc, i)))
		if err != nil {
			return err
		}
		detail, err := json.Marshal(dec)
		if err != nil {
			return fmt.Errorf("encoding decision: %w", err)
		}
		ev := journal.Event{Kind: journal.KindDecision, Stream: st.Name, Action: dec.Verdict.ActionName, Detail: detail}
		for k := 0; k < 2; k++ {
			var aerr error
			appends = append(appends, timeMS(func() { _, aerr = jrn.Append(ev) }))
			if aerr != nil {
				return aerr
			}
		}
	}
	size, err := dirSize(dir)
	if err != nil {
		return err
	}
	m["journal.append_ms"] = median(appends)
	m["journal.bytes_per_append"] = size / float64(len(appends))
	return nil
}

// inferCosts covers the cold /infer path's packages on costColumns of
// the onboarding sequence, and the warm path through the handler.
func inferCosts(m map[string]float64, lk *lake, sc *schedule, scratch *member) error {
	enum := lk.opt.Enum
	enum.MaxTokens = lk.opt.Tau
	handler := scratch.svc.Handler()
	var infer, objects, bytesPer, enumerate, warm []float64
	var lexNS, lookupNS, lexed, candidates, hits, noRule float64
	for k := 0; k < costColumns; k++ {
		o, err := sc.inferOp(k)
		if err != nil {
			return err
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		infer = append(infer, timeMS(func() { _, err = core.Infer(o.values, lk.idx, lk.opt) }))
		runtime.ReadMemStats(&after)
		objects = append(objects, float64(after.Mallocs-before.Mallocs))
		bytesPer = append(bytesPer, float64(after.TotalAlloc-before.TotalAlloc))
		switch {
		case errors.Is(err, core.ErrNoFeasible):
			noRule++
		case err != nil:
			return fmt.Errorf("core.Infer on column %d: %w", k, err)
		}

		var res pattern.EnumResult
		enumerate = append(enumerate, timeMS(func() { res = pattern.Enumerate(o.values, enum) }))
		candidates += float64(len(res.Candidates))
		if len(res.Candidates) > 0 {
			lookupNS += perCallNS(func() {
				for _, c := range res.Candidates {
					lk.idx.LookupPattern(c.Pattern)
				}
			})
			for _, c := range res.Candidates {
				if _, ok := lk.idx.LookupPattern(c.Pattern); ok {
					hits++
				}
			}
		}
		lexNS += perCallNS(func() {
			for _, v := range o.values {
				tokens.Lex(v)
			}
		})
		lexed += float64(len(o.values))

		// Cold then warm through the handler: the second post of the same
		// body is answered from the rule cache.
		for pass := 0; pass < 2; pass++ {
			ms, err := timeDirect(handler, o)
			if err != nil {
				return fmt.Errorf("/infer of column %d: %w", k, err)
			}
			if pass == 1 {
				warm = append(warm, ms)
			}
		}
	}
	m["core.infer_ms"] = median(infer)
	m["core.infer_allocs_per_column"] = median(objects)
	m["core.infer_bytes_per_column"] = median(bytesPer)
	m["core.no_rule_ratio"] = noRule / costColumns
	m["pattern.enumerate_ms"] = median(enumerate)
	m["pattern.candidates_per_column"] = candidates / costColumns
	m["index.lookup_ns"] = lookupNS / candidates
	m["index.lookup_hit_ratio"] = hits / candidates
	m["tokens.lex_ns_per_value"] = lexNS / lexed
	m["service.infer_warm_ms"] = median(warm)
	return nil
}

// indexCosts covers the write side of internal/index as /ingest uses
// it — clone, delta-build and merge, delta encode — and the ingest
// handler as a whole.
func indexCosts(m map[string]float64, lk *lake, sc *schedule, scratch *member) error {
	handler := scratch.svc.Handler()
	var clone, ingest, deltaBytes, handle []float64
	for k := 0; k < costTables; k++ {
		var next *index.Index
		clone = append(clone, timeMS(func() { next = lk.idx.Clone() }))
		req, err := sc.ingestTable(k)
		if err != nil {
			return err
		}
		var cols []*corpus.Column
		for _, tbl := range req.Tables {
			for _, col := range tbl.Columns {
				cols = append(cols, corpus.NewColumn(tbl.Name, col.Name, col.Values))
			}
		}
		var delta *index.Delta
		ingest = append(ingest, timeMS(func() { delta, err = next.IngestColumns(cols, index.BuildOptions{}) }))
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := index.EncodeDelta(&buf, delta); err != nil {
			return err
		}
		deltaBytes = append(deltaBytes, float64(buf.Len()))

		o, err := sc.ingestOp(k)
		if err != nil {
			return err
		}
		ms, err := timeDirect(handler, o)
		if err != nil {
			return fmt.Errorf("/ingest of table %d: %w", k, err)
		}
		handle = append(handle, ms)
	}
	m["index.clone_ms"] = median(clone)
	m["index.ingest_columns_ms"] = median(ingest)
	m["index.delta_bytes"] = median(deltaBytes)
	m["index.patterns"] = float64(lk.idx.Size())
	m["service.ingest_handler_ms"] = median(handle)
	return nil
}

// dirSize sums the sizes of the regular files under dir.
func dirSize(dir string) (float64, error) {
	var total float64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += float64(info.Size())
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("sizing %s: %w", dir, err)
	}
	return total, nil
}
