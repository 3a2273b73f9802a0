// Package validate implements the online half of Auto-Validate: applying
// an inferred data-domain pattern to future data, with the paper's §4
// distributional test deciding whether the non-conforming fraction has
// drifted significantly from what was seen at training time.
package validate

import (
	"errors"
	"fmt"
	"log"
	"sort"
	"sync/atomic"

	"autovalidate/internal/pattern"
	"autovalidate/internal/stats"
)

// Rule is a learned single-column validation rule: a data-domain pattern
// plus the training-time non-conforming statistics needed by the
// two-sample homogeneity test.
type Rule struct {
	// Pattern is the inferred data-domain pattern h(C).
	Pattern pattern.Pattern
	// EstimatedFPR is FPR_T(h) from the offline index at inference
	// time (for vertical cuts, the summed per-segment estimate).
	EstimatedFPR float64
	// TrainNonConforming and TrainTotal give θ_C(h) =
	// TrainNonConforming/TrainTotal, the training non-conforming rate.
	TrainNonConforming int
	TrainTotal         int
	// Test selects Fisher's exact test or chi-squared with Yates
	// correction; Alpha is the significance level (the paper uses
	// two-tailed Fisher at 0.01).
	Test  stats.TwoSampleTest
	Alpha float64
	// Strategy records which FMDV variant produced the rule.
	Strategy string
	// Segments, for vertically cut rules, holds the per-segment
	// patterns whose concatenation is Pattern.
	Segments []pattern.Pattern

	// prog caches the compiled matching program for Pattern. It is
	// populated lazily by Program (or eagerly by Precompile at
	// registration/load time) and is deliberately excluded from the
	// JSON form: programs are derived state, rebuilt after a reload.
	prog atomic.Pointer[pattern.Program]
}

// Program returns the rule's compiled matching program, compiling it on
// first use. The program is immutable and safe for concurrent use; the
// serving layer calls Precompile at registration time so no request
// pays the (one-off, microseconds) compilation cost.
func (r *Rule) Program() *pattern.Program {
	if p := r.prog.Load(); p != nil {
		return p
	}
	p := pattern.Compile(r.Pattern)
	if r.prog.CompareAndSwap(nil, p) {
		return p
	}
	return r.prog.Load()
}

// Precompile forces compilation of the rule's matching program, moving
// the cost from the first validated batch to registration time.
func (r *Rule) Precompile() { r.Program() }

// TrainTheta returns θ_C(h), the training-time non-conforming fraction.
func (r *Rule) TrainTheta() float64 {
	if r.TrainTotal == 0 {
		return 0
	}
	return float64(r.TrainNonConforming) / float64(r.TrainTotal)
}

// Report is the outcome of validating one batch of future values.
type Report struct {
	Total         int
	NonConforming int
	// TrainTheta and TestTheta are θ_C(h) and θ_C'(h).
	TrainTheta float64
	TestTheta  float64
	// PValue is the two-sample homogeneity test p-value; Alarm is true
	// when the null hypothesis (same non-conforming distribution) is
	// rejected at the rule's significance level.
	PValue float64
	Alarm  bool
	// Examples holds up to a few non-conforming values for triage.
	Examples []string
}

// String renders a one-line summary.
func (rep Report) String() string {
	verdict := "ok"
	if rep.Alarm {
		verdict = "ALARM"
	}
	return fmt.Sprintf("%s: %d/%d non-conforming (train θ=%.4f, test θ=%.4f, p=%.4g)",
		verdict, rep.NonConforming, rep.Total, rep.TrainTheta, rep.TestTheta, rep.PValue)
}

// ErrEmptyBatch is returned when validating an empty value batch.
var ErrEmptyBatch = errors.New("validate: empty batch")

const maxExamples = 5

// Validate applies the rule to a batch of future values C', computing
// θ_C'(h) and the §4 two-sample test against the training distribution.
func (r *Rule) Validate(values []string) (Report, error) { return Apply(r, values) }

// Apply is Validate over either value form: strings out of a JSON
// envelope or byte views into a decoded column body. The examples are
// the only strings it materializes.
func Apply[V pattern.Value](r *Rule, values []V) (Report, error) {
	rep := AcquireBatchReport()
	defer rep.Release()
	if err := validateBatch(r, values, rep); err != nil {
		return Report{}, err
	}
	return report(rep, values), nil
}

// Flags reports whether the rule would alarm on the batch, squashing the
// error for empty batches to false (nothing arrived, nothing to flag).
// Any other failure — e.g. a rule whose training statistics form an
// invalid contingency table — cannot be interpreted as "no alarm": it is
// logged and reported as a flag, so a stats failure never silently
// clears a batch.
func (r *Rule) Flags(values []string) bool {
	rep, err := r.Validate(values)
	if err != nil {
		if errors.Is(err, ErrEmptyBatch) {
			return false
		}
		log.Printf("validate: Flags: %v", err)
		return true
	}
	return rep.Alarm
}

// RuleSet validates a whole table: one rule per column name.
type RuleSet struct {
	Rules map[string]*Rule
}

// NewRuleSet returns an empty rule set.
func NewRuleSet() *RuleSet { return &RuleSet{Rules: map[string]*Rule{}} }

// Add registers a rule for a column.
func (rs *RuleSet) Add(column string, r *Rule) { rs.Rules[column] = r }

// ColumnReport pairs a column name with its validation report.
type ColumnReport struct {
	Column string
	Report Report
	Err    error
}

// ValidateColumns applies every rule to its column's values (columns with
// no rule are skipped) and returns per-column reports, alarms first.
func (rs *RuleSet) ValidateColumns(cols map[string][]string) []ColumnReport {
	var out []ColumnReport
	for name, r := range rs.Rules {
		vals, ok := cols[name]
		if !ok {
			continue
		}
		rep, err := r.Validate(vals)
		out = append(out, ColumnReport{Column: name, Report: rep, Err: err})
	}
	// Alarms first, then by column name, so the output is deterministic
	// regardless of map-iteration order.
	sort.Slice(out, func(i, j int) bool {
		if out[i].Report.Alarm != out[j].Report.Alarm {
			return out[i].Report.Alarm
		}
		return out[i].Column < out[j].Column
	})
	return out
}
