package evalbench

import (
	"fmt"
	"strings"
	"time"

	"autovalidate/internal/core"
	"autovalidate/internal/pattern"
	"autovalidate/internal/tokens"
)

// Table3Row is one row of the Table 3 user study.
type Table3Row struct {
	Who       string
	AvgTimeS  float64
	Precision float64
	Recall    float64
	// TimeFromPaper marks rows whose timing is quoted from the paper
	// (human timings cannot be re-measured in a simulation).
	TimeFromPaper bool
}

// Programmer models of the user study. We cannot recruit the paper's
// five developers, so three simulated regex-writing styles reproduce the
// quality gap the study measures (humans under-generalize), while their
// per-column times are quoted from the paper's Table 3 and labelled as
// such. Two of the paper's five participants failed outright; the
// simulated novice reproduces that by writing a dictionary alternation.
type programmer struct {
	name  string
	write func(values []string) (func([]string) bool, bool)
	// paperSeconds is the corresponding human's reported average time.
	paperSeconds float64
}

func simulatedProgrammers() []programmer {
	return []programmer{
		{
			// Writes an alternation of the literal examples — the
			// regex equivalent of a dictionary, which false-alarms on
			// any unseen value.
			name:         "#1 (literal alternation)",
			paperSeconds: 145,
			write: func(values []string) (func([]string) bool, bool) {
				dict := map[string]struct{}{}
				for _, v := range values {
					dict[v] = struct{}{}
				}
				return func(batch []string) bool {
					for _, v := range batch {
						if _, ok := dict[v]; !ok {
							return true
						}
					}
					return false
				}, true
			},
		},
		{
			// Transcribes the first example's exact shape with fixed
			// widths ("\d{2}/\d{2}" style) — over-fitted widths.
			name:         "#2 (first-example shape)",
			paperSeconds: 123,
			write: func(values []string) (func([]string) bool, bool) {
				if len(values) == 0 {
					return nil, false
				}
				runs := tokens.Lex(values[0])
				toks := make([]pattern.Tok, len(runs))
				for i, r := range runs {
					if r.Class == tokens.ClassSymbol || r.Class == tokens.ClassSpace {
						toks[i] = pattern.Lit(r.Text)
					} else {
						toks[i] = pattern.ClassN(r.Class, len(r.Text))
					}
				}
				p := pattern.Pattern{Toks: toks}
				return flagsMisses(p), true
			},
		},
		{
			// Generalizes classes but guesses no width variation
			// beyond what the examples show (an SSIS-like profile).
			name:         "#3 (class ranges)",
			paperSeconds: 84,
			write: func(values []string) (func([]string) bool, bool) {
				shapes := map[string][]string{}
				for _, v := range values {
					s := tokens.ClassShape(tokens.Lex(v))
					shapes[s] = append(shapes[s], v)
				}
				best, bestN := "", -1
				for s, vs := range shapes {
					if len(vs) > bestN {
						best, bestN = s, len(vs)
					}
				}
				vs := shapes[best]
				if len(vs) == 0 {
					return nil, false
				}
				p, ok := rangeProfile(vs)
				if !ok {
					return nil, false
				}
				return flagsMisses(p), true
			},
		},
	}
}

// flagsMisses is the validator a programmer's pattern amounts to: flag
// a batch when any value fails to match.
func flagsMisses(p pattern.Pattern) func([]string) bool {
	prog := pattern.Compile(p)
	return func(batch []string) bool {
		for _, v := range batch {
			if !prog.MatchString(v) {
				return true
			}
		}
		return false
	}
}

// rangeProfile is the human-style class-range regex over a uniform shape.
func rangeProfile(values []string) (pattern.Pattern, bool) {
	first := tokens.Lex(values[0])
	mins := make([]int, len(first))
	maxs := make([]int, len(first))
	for i, r := range first {
		mins[i], maxs[i] = len(r.Text), len(r.Text)
	}
	for _, v := range values[1:] {
		runs := tokens.Lex(v)
		if len(runs) != len(first) {
			return pattern.Pattern{}, false
		}
		for i, r := range runs {
			if len(r.Text) < mins[i] {
				mins[i] = len(r.Text)
			}
			if len(r.Text) > maxs[i] {
				maxs[i] = len(r.Text)
			}
		}
	}
	toks := make([]pattern.Tok, len(first))
	for i, r := range first {
		if r.Class == tokens.ClassSymbol || r.Class == tokens.ClassSpace {
			toks[i] = pattern.Lit(r.Text)
		} else {
			toks[i] = pattern.ClassRange(r.Class, mins[i], maxs[i])
		}
	}
	return pattern.Pattern{Toks: toks}, true
}

// Table3UserStudy evaluates the simulated programmers and FMDV-VH on n
// sampled benchmark columns, reporting quality measured here and human
// times quoted from the paper.
func (e *Env) Table3UserStudy(n int) []Table3Row {
	cases := e.BE.PatternCases()
	if n > len(cases) {
		n = len(cases)
	}
	sub := &Benchmark{Name: "user-study", Cases: make([]Case, 0, n)}
	for _, ci := range cases[:n] {
		sub.Cases = append(sub.Cases, e.BE.Cases[ci])
	}

	var rows []Table3Row
	for _, p := range simulatedProgrammers() {
		res := evaluate(sub, progRunner{p}, evalOpts{recallSample: e.Cfg.RecallSample, workers: e.Cfg.Workers})
		rows = append(rows, Table3Row{
			Who: p.name, AvgTimeS: p.paperSeconds,
			Precision: res.Precision, Recall: res.Recall,
			TimeFromPaper: true,
		})
	}
	r := NewFMDVRunner(core.FMDVVH, e.IdxE, e.Cfg)
	start := time.Now()
	res := evaluate(sub, r, evalOpts{recallSample: e.Cfg.RecallSample, workers: e.Cfg.Workers})
	elapsed := time.Since(start).Seconds() / float64(n)
	rows = append(rows, Table3Row{Who: "FMDV-VH", AvgTimeS: elapsed, Precision: res.Precision, Recall: res.Recall})
	return rows
}

type progRunner struct{ p programmer }

func (r progRunner) Name() string { return r.p.name }
func (r progRunner) Train(values []string) (func([]string) bool, bool) {
	return r.p.write(values)
}

// FormatTable3 renders the user study.
func FormatTable3(rows []Table3Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-28s %14s %10s %10s\n", "Programmer", "avg-time (sec)", "precision", "recall")
	for _, r := range rows {
		note := ""
		if r.TimeFromPaper {
			note = " (time quoted from paper)"
		}
		fmt.Fprintf(&sb, "%-28s %14.2f %10.3f %10.3f%s\n", r.Who, r.AvgTimeS, r.Precision, r.Recall, note)
	}
	return sb.String()
}
