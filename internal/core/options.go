// Package core implements the Auto-Validate inference algorithms: FMDV
// (paper §2.3), FMDV-V with vertical cuts (§3), FMDV-H with horizontal
// cuts (§4), and FMDV-VH combining both. Given a query column C and the
// offline index over the corpus T, it selects the data-domain pattern
// minimizing estimated FPR subject to the FPR and coverage constraints.
package core

import (
	"errors"
	"fmt"

	"autovalidate/internal/pattern"
	"autovalidate/internal/stats"
)

// Strategy selects the FMDV variant.
type Strategy uint8

// FMDV variants (§5.2).
const (
	FMDV   Strategy = iota // basic, homogeneous column assumed
	FMDVV                  // vertical cuts (composite domains)
	FMDVH                  // horizontal cuts (tolerate θ non-conforming)
	FMDVVH                 // both
)

// String names the strategy as in the paper.
func (s Strategy) String() string {
	switch s {
	case FMDVV:
		return "FMDV-V"
	case FMDVH:
		return "FMDV-H"
	case FMDVVH:
		return "FMDV-VH"
	default:
		return "FMDV"
	}
}

// ParseStrategy is the inverse of Strategy.String: it accepts exactly
// the four paper names.
func ParseStrategy(name string) (Strategy, error) {
	for _, s := range []Strategy{FMDV, FMDVV, FMDVH, FMDVVH} {
		if s.String() == name {
			return s, nil
		}
	}
	return FMDV, fmt.Errorf("unknown strategy %q", name)
}

// Objective selects the optimization objective: the paper's FPR-
// minimizing formulation, or the coverage-minimizing alternative (CMDV)
// it mentions and reports as less effective — kept for the ablation.
type Objective uint8

// Objectives.
const (
	MinFPR      Objective = iota // FMDV (Eq. 5)
	MinCoverage                  // CMDV (§2.3, ablation)
)

// Aggregate selects how per-segment FPRs combine in vertical cuts: the
// paper's pessimistic sum (Eq. 8) or the optimistic max it mentions and
// rejects — kept for the ablation.
type Aggregate uint8

// Aggregates.
const (
	SumFPR Aggregate = iota
	MaxFPR
)

// Options configure inference for one query column.
type Options struct {
	// Strategy is the FMDV variant.
	Strategy Strategy
	// R is the FPR target r (Eq. 6); M is the coverage target m
	// (Eq. 7).
	R float64
	M int
	// Theta is the non-conforming tolerance θ of horizontal cuts
	// (Eq. 16). Ignored by FMDV and FMDV-V.
	Theta float64
	// Tau is the token-count cap τ used when enumerating hypotheses;
	// it should match the index's build-time τ. τ ≤ 0 means no cap.
	Tau int
	// Enum are the base enumeration options (support thresholds are
	// overridden per strategy).
	Enum pattern.EnumOptions
	// Test and Alpha configure the drift test of the produced rule.
	Test  stats.TwoSampleTest
	Alpha float64
	// Objective and Aggregate select ablation alternatives; the zero
	// values are the paper's choices.
	Objective Objective
	Aggregate Aggregate
	// MaxAlignCols caps the aligned token-sequence length handled by
	// vertical cuts (DP size safety valve).
	MaxAlignCols int
}

// DefaultOptions returns the paper's recommended configuration:
// FMDV-VH with r=0.1, m=100, θ=0.1, τ=8, two-tailed Fisher at 0.01
// (§5.2 and the Figure 11 caption).
func DefaultOptions() Options {
	return Options{
		Strategy:     FMDVVH,
		R:            0.1,
		M:            100,
		Theta:        0.1,
		Tau:          8,
		Enum:         pattern.DefaultEnumOptions(),
		Test:         stats.Fisher,
		Alpha:        0.01,
		MaxAlignCols: 48,
	}
}

// Inference failure modes.
var (
	// ErrEmptyColumn is returned for a query column with no values.
	ErrEmptyColumn = errors.New("core: empty query column")
	// ErrNoFeasible is returned when no hypothesis satisfies the FPR
	// and coverage constraints — the conservative outcome in which
	// Auto-Validate declines to produce a rule rather than risk
	// false alarms.
	ErrNoFeasible = errors.New("core: no feasible validation pattern")
)
