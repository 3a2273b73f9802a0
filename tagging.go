package autovalidate

import (
	"sort"

	"autovalidate/internal/core"
	"autovalidate/internal/pattern"
)

// InferTagPattern implements the dual formulation of §2.3 used by the
// Azure Purview "Auto-Tag" feature: given example values of a domain,
// find the most restrictive pattern (minimum corpus coverage) whose
// false-negative rate on the examples is at most maxFNR. The returned
// rule's pattern can be used to tag other columns of the same domain.
func InferTagPattern(examples []string, idx *Index, opt Options, maxFNR float64) (*Rule, error) {
	return core.InferTag(examples, idx, opt, maxFNR)
}

// TagMatch is one column tagged by a pattern.
type TagMatch struct {
	Column *Column
	// MatchFraction is the share of the column's values the tag
	// pattern matches.
	MatchFraction float64
}

// TagColumns scans a corpus for columns whose values match the tag
// pattern in at least minFraction of rows, returning matches ordered by
// match fraction — the "tag related columns of the same type" workflow.
func TagColumns(c *Corpus, tag Pattern, minFraction float64) []TagMatch {
	var out []TagMatch
	prog := pattern.Compile(tag)
	for _, col := range c.Columns() {
		if len(col.Values) == 0 {
			continue
		}
		misses, _ := pattern.CountMisses(prog, col.Values, nil, 0)
		frac := float64(len(col.Values)-misses) / float64(len(col.Values))
		if frac >= minFraction {
			out = append(out, TagMatch{Column: col, MatchFraction: frac})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].MatchFraction != out[j].MatchFraction {
			return out[i].MatchFraction > out[j].MatchFraction
		}
		return out[i].Column.ID() < out[j].Column.ID()
	})
	return out
}
