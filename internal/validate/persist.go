package validate

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"autovalidate/internal/frame"
	"autovalidate/internal/pattern"
	"autovalidate/internal/stats"
)

// ruleJSON is the persisted form of a Rule: patterns are stored in the
// canonical notation and parsed back on load.
type ruleJSON struct {
	Pattern            string   `json:"pattern"`
	EstimatedFPR       float64  `json:"estimated_fpr"`
	TrainNonConforming int      `json:"train_non_conforming"`
	TrainTotal         int      `json:"train_total"`
	Test               string   `json:"test"`
	Alpha              float64  `json:"alpha"`
	Strategy           string   `json:"strategy"`
	Segments           []string `json:"segments,omitempty"`
}

// MarshalJSON implements json.Marshaler.
func (r *Rule) MarshalJSON() ([]byte, error) {
	out := ruleJSON{
		Pattern:            r.Pattern.String(),
		EstimatedFPR:       r.EstimatedFPR,
		TrainNonConforming: r.TrainNonConforming,
		TrainTotal:         r.TrainTotal,
		Test:               r.Test.String(),
		Alpha:              r.Alpha,
		Strategy:           r.Strategy,
	}
	for _, s := range r.Segments {
		out.Segments = append(out.Segments, s.String())
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler.
func (r *Rule) UnmarshalJSON(data []byte) error {
	var in ruleJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("validate: %w", err)
	}
	pat, err := pattern.Parse(in.Pattern)
	if err != nil {
		return fmt.Errorf("validate: rule pattern: %w", err)
	}
	var segs []pattern.Pattern
	for _, s := range in.Segments {
		seg, err := pattern.Parse(s)
		if err != nil {
			return fmt.Errorf("validate: rule segment: %w", err)
		}
		segs = append(segs, seg)
	}
	test := stats.Fisher
	if in.Test == stats.ChiSquared.String() {
		test = stats.ChiSquared
	}
	// Field-by-field rather than a struct literal: the Rule carries a
	// cached compiled program behind an atomic pointer, which must be
	// reset (not copied) when the rule's pattern is replaced.
	r.Pattern = pat
	r.EstimatedFPR = in.EstimatedFPR
	r.TrainNonConforming = in.TrainNonConforming
	r.TrainTotal = in.TrainTotal
	r.Test = test
	r.Alpha = in.Alpha
	r.Strategy = in.Strategy
	r.Segments = segs
	r.prog.Store(nil)
	return nil
}

// Save writes the rule as JSON, atomically and durably
// (frame.SaveAtomic): a failed save leaves the previous file intact.
func (r *Rule) Save(path string) error {
	return saveJSON(path, r)
}

// saveJSON replaces path with v's indented JSON and a trailing newline.
func saveJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("validate: %w", err)
	}
	err = frame.SaveAtomic(path, func(w io.Writer) error {
		if _, err := w.Write(append(data, '\n')); err != nil {
			return fmt.Errorf("writing JSON: %w", err)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("validate: %w", err)
	}
	return nil
}

// LoadRule reads a rule written by Save.
func LoadRule(path string) (*Rule, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("validate: %w", err)
	}
	var r Rule
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("validate: parsing rule %s: %w", path, err)
	}
	return &r, nil
}

// Save writes a rule set as a JSON object keyed by column name, with
// the same all-or-nothing guarantee as Rule.Save.
func (rs *RuleSet) Save(path string) error {
	return saveJSON(path, rs.Rules)
}

// LoadRuleSet reads a rule set written by RuleSet.Save.
func LoadRuleSet(path string) (*RuleSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("validate: %w", err)
	}
	rs := NewRuleSet()
	if err := json.Unmarshal(data, &rs.Rules); err != nil {
		return nil, fmt.Errorf("validate: %w", err)
	}
	return rs, nil
}
