// Package corpus models the data-lake corpus T of the paper: a collection
// of tables whose string-valued columns provide the evidence for pattern
// inference. It includes loaders for directory-of-CSV/TSV lakes and the
// summary statistics reported in Table 1.
package corpus

import (
	"fmt"
	"math"
)

// Column is a single string-valued data column D ∈ T.
type Column struct {
	// Table and Name identify the column within the lake.
	Table string
	Name  string
	// Values are the column's cell values, in file order.
	Values []string
	// Domain optionally records the generating domain label when the
	// corpus is synthetic; it is the ground truth used by Table 2's
	// manually-curated evaluation and is never consulted by inference.
	Domain string
}

// NewColumn assembles a column from its lake identity and values — the
// construction used by streaming ingestion, where tables arrive over the
// wire rather than as files on disk.
func NewColumn(table, name string, values []string) *Column {
	return &Column{Table: table, Name: name, Values: values}
}

// DistinctCount returns the number of distinct values in the column.
func (c *Column) DistinctCount() int {
	seen := make(map[string]struct{}, len(c.Values))
	for _, v := range c.Values {
		seen[v] = struct{}{}
	}
	return len(seen)
}

// ID returns a stable "table/column" identifier.
func (c *Column) ID() string { return c.Table + "/" + c.Name }

// Table is one data file: a named set of columns of equal length.
type Table struct {
	Name    string
	Columns []*Column
}

// NumRows returns the row count of the table (0 for an empty table).
func (t *Table) NumRows() int {
	if len(t.Columns) == 0 {
		return 0
	}
	return len(t.Columns[0].Values)
}

// Corpus is the background corpus T.
type Corpus struct {
	Tables []*Table
}

// Columns returns all columns of all tables, in table order.
func (c *Corpus) Columns() []*Column {
	var out []*Column
	for _, t := range c.Tables {
		out = append(out, t.Columns...)
	}
	return out
}

// NumColumns returns the total number of columns.
func (c *Corpus) NumColumns() int {
	n := 0
	for _, t := range c.Tables {
		n += len(t.Columns)
	}
	return n
}

// Add appends a table.
func (c *Corpus) Add(t *Table) { c.Tables = append(c.Tables, t) }

// Stats are the per-corpus characteristics of Table 1 in the paper.
type Stats struct {
	NumFiles           int
	NumCols            int
	AvgValueCount      float64
	StdValueCount      float64
	AvgDistinctCount   float64
	StdDistinctCount   float64
	TotalValues        int
	StringBytesApprox  int64
	DomainsRepresented int
}

// ComputeStats scans the corpus and produces Table 1's characteristics.
func (c *Corpus) ComputeStats() Stats {
	var s Stats
	s.NumFiles = len(c.Tables)
	var valCounts, distCounts []float64
	domains := map[string]struct{}{}
	for _, t := range c.Tables {
		for _, col := range t.Columns {
			s.NumCols++
			valCounts = append(valCounts, float64(len(col.Values)))
			distCounts = append(distCounts, float64(col.DistinctCount()))
			s.TotalValues += len(col.Values)
			for _, v := range col.Values {
				s.StringBytesApprox += int64(len(v))
			}
			if col.Domain != "" {
				domains[col.Domain] = struct{}{}
			}
		}
	}
	s.AvgValueCount, s.StdValueCount = meanStd(valCounts)
	s.AvgDistinctCount, s.StdDistinctCount = meanStd(distCounts)
	s.DomainsRepresented = len(domains)
	return s
}

func meanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		std += (x - mean) * (x - mean)
	}
	std = math.Sqrt(std / float64(len(xs)))
	return mean, std
}

// String formats the stats as a Table 1 row.
func (s Stats) String() string {
	return fmt.Sprintf("files=%d cols=%d avg_values=%.0f(%.0f) avg_distinct=%.0f(%.0f)",
		s.NumFiles, s.NumCols, s.AvgValueCount, s.StdValueCount,
		s.AvgDistinctCount, s.StdDistinctCount)
}

// SampleColumns returns up to n columns chosen deterministically from a
// seeded permutation, mirroring the paper's random benchmark sampling
// (§5.1). Columns with fewer than minValues values are skipped.
func (c *Corpus) SampleColumns(n int, minValues int, seed int64) []*Column {
	cols := c.Columns()
	idx := make([]int, len(cols))
	for i := range idx {
		idx[i] = i
	}
	// Deterministic shuffle via a simple LCG so sampling is stable
	// across runs without importing math/rand here.
	state := uint64(seed)*6364136223846793005 + 1442695040888963407
	for i := len(idx) - 1; i > 0; i-- {
		state = state*6364136223846793005 + 1442695040888963407
		j := int(state % uint64(i+1))
		idx[i], idx[j] = idx[j], idx[i]
	}
	var out []*Column
	for _, i := range idx {
		if len(out) >= n {
			break
		}
		if len(cols[i].Values) >= minValues {
			out = append(out, cols[i])
		}
	}
	return out
}

// DomainHistogram counts columns per ground-truth domain label (empty
// labels are grouped under "unknown"). Used by generator tests and the
// pattern analysis of Figure 13.
func (c *Corpus) DomainHistogram() map[string]int {
	h := map[string]int{}
	for _, col := range c.Columns() {
		d := col.Domain
		if d == "" {
			d = "unknown"
		}
		h[d]++
	}
	return h
}
