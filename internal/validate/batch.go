package validate

// The zero-allocation batch path, and the one body behind every way of
// validating a batch. Values arrive as strings (Rule.Validate, a JSON
// envelope) or as [][]byte views into a decoded column slab
// (Rule.ValidateBatch, the columnar endpoints); either way matching runs
// through the rule's compiled program (DFA where the pattern lowered,
// pike VM otherwise), and the outcome lands in a caller-provided,
// poolable BatchReport that records non-conforming examples by index
// instead of copying them. Steady state, the whole batch performs zero
// heap allocations.

import (
	"fmt"
	"sync"

	"autovalidate/internal/pattern"
	"autovalidate/internal/stats"
)

// BatchReport is the reusable outcome of validating one batch of byte
// values. The fields mirror Report; non-conforming examples are kept as
// batch indexes so no value bytes are copied on the hot path.
type BatchReport struct {
	Total         int
	NonConforming int
	// TrainTheta and TestTheta are θ_C(h) and θ_C'(h).
	TrainTheta float64
	TestTheta  float64
	// PValue and Alarm are the §4 homogeneity-test outcome, as in
	// Report.
	PValue float64
	Alarm  bool

	// exampleIdx holds the batch indexes of up to maxExamples
	// non-conforming values; the backing array is reused across Reset.
	exampleIdx []int
}

// Reset clears the report for reuse, keeping allocated capacity.
func (rep *BatchReport) Reset() {
	rep.Total = 0
	rep.NonConforming = 0
	rep.TrainTheta = 0
	rep.TestTheta = 0
	rep.PValue = 0
	rep.Alarm = false
	rep.exampleIdx = rep.exampleIdx[:0]
}

// Examples materializes the retained non-conforming values as strings —
// the one deliberately allocating convenience, for response payloads.
func (rep *BatchReport) Examples(values [][]byte) []string { return examples(rep, values) }

func examples[V pattern.Value](rep *BatchReport, values []V) []string {
	if len(rep.exampleIdx) == 0 {
		return nil
	}
	out := make([]string, 0, len(rep.exampleIdx))
	for _, i := range rep.exampleIdx {
		if i >= 0 && i < len(values) {
			out = append(out, string(values[i]))
		}
	}
	return out
}

// Report converts the batch outcome into the classic Report form,
// materializing example strings from the batch.
func (rep *BatchReport) Report(values [][]byte) Report { return report(rep, values) }

func report[V pattern.Value](rep *BatchReport, values []V) Report {
	return Report{
		Total:         rep.Total,
		NonConforming: rep.NonConforming,
		TrainTheta:    rep.TrainTheta,
		TestTheta:     rep.TestTheta,
		PValue:        rep.PValue,
		Alarm:         rep.Alarm,
		Examples:      examples(rep, values),
	}
}

// String renders the one-line summary of Report.String.
func (rep *BatchReport) String() string { return rep.Report(nil).String() }

var batchReportPool = sync.Pool{New: func() any { return new(BatchReport) }}

// AcquireBatchReport returns a pooled report; pair with Release.
func AcquireBatchReport() *BatchReport {
	return batchReportPool.Get().(*BatchReport)
}

// Release returns the report to the pool. The report must not be used
// afterwards.
func (rep *BatchReport) Release() {
	rep.Reset()
	batchReportPool.Put(rep)
}

// ValidateBatch applies the rule to a batch of byte values, filling rep
// in place. Matching runs through the rule's compiled program, so the
// worst case is O(len(value)·len(pattern)) per value and a steady-state
// call performs no heap allocations. rep must be non-nil (use
// AcquireBatchReport for a pooled one); it is reset first, so a report
// can be reused across batches.
func (r *Rule) ValidateBatch(values [][]byte, rep *BatchReport) error {
	if rep == nil {
		return fmt.Errorf("validate: nil batch report")
	}
	return validateBatch(r, values, rep)
}

func validateBatch[V pattern.Value](r *Rule, values []V, rep *BatchReport) error {
	rep.Reset()
	if len(values) == 0 {
		return ErrEmptyBatch
	}
	nc, idx := pattern.CountMisses(r.Program(), values, rep.exampleIdx, maxExamples)
	rep.exampleIdx = idx
	rep.Total = len(values)
	rep.NonConforming = nc
	rep.TrainTheta = r.TrainTheta()
	rep.TestTheta = float64(nc) / float64(rep.Total)
	p, err := stats.HomogeneityPValue(r.Test, r.TrainNonConforming, r.TrainTotal, nc, rep.Total)
	if err != nil {
		return fmt.Errorf("validate: %w", err)
	}
	rep.PValue = p
	// Alarm only on an *increase* in non-conforming fraction that the
	// test deems significant; a significant decrease is an improvement,
	// not a data-quality issue.
	rep.Alarm = p < r.Alpha && rep.TestTheta > rep.TrainTheta
	return nil
}
