package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer. Spans of one operation share
// op_id; parent is the id of the span one layer up (0 for the client's).
type span struct {
	ID      int     `json:"id"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	Parent  int     `json:"parent"`
	OpID    int     `json:"op_id"`
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine at a time.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a span and returns its id.
func (t *tracer) add(name string, opID, parent int, start, end time.Duration) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Name: name, Parent: parent, OpID: opID,
		StartUS: float64(start) / 1e3, EndUS: float64(end) / 1e3,
	})
	return id
}

// opTime is a time in milliseconds that belongs to one operation.
type opTime struct {
	opID int
	ms   float64
}

// selfTimes returns, per span name, each span's duration minus the
// durations of its children. The replay runs a layer's child after it
// rather than inside it, so a child's whole duration is the part of its
// parent it accounts for.
func selfTimes(spans []span) map[string][]opTime {
	dur := func(i int) float64 { return (spans[i].EndUS - spans[i].StartUS) / 1e3 }
	children := make(map[int]float64, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] += dur(i)
		}
	}
	self := map[string][]opTime{}
	for i, s := range spans {
		self[s.Name] = append(self[s.Name], opTime{s.OpID, dur(i) - children[s.ID]})
	}
	return self
}

// stratifiedMedian is the median of each stratum's times, averaged over
// the strata by their sizes. Operations of one stratum send the same
// bytes down the same path, so within it a median is a fair summary;
// across strata (a 36-byte GUID column beside a 6-byte version column,
// a clean batch beside a drifted one) the mix is what it is, and the
// medians of the parts of a mixed sample do not add up to the median
// of the whole.
func stratifiedMedian(times []opTime, stratum func(opID int) int) float64 {
	groups := map[int][]float64{}
	for _, t := range times {
		k := stratum(t.opID)
		groups[k] = append(groups[k], t.ms)
	}
	var sum float64
	for _, g := range groups {
		sum += median(g) * float64(len(g))
	}
	if len(times) == 0 {
		return 0
	}
	return sum / float64(len(times))
}

// writeJSONL writes the spans one JSON object per line.
func writeJSONL(path string, spans []span) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("creating trace directory: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating trace file: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("closing trace file: %w", cerr)
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
