package corpus

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func twoTableCorpus() *Corpus {
	c := &Corpus{}
	c.Add(&Table{Name: "t1", Columns: []*Column{
		{Table: "t1", Name: "id", Values: []string{"1", "2", "3"}, Domain: "int"},
		{Table: "t1", Name: "date", Values: []string{"Mar 01 2019", "Mar 02 2019", "Mar 02 2019"}, Domain: "date"},
	}})
	c.Add(&Table{Name: "t2", Columns: []*Column{
		{Table: "t2", Name: "code", Values: []string{"en-US", "en-GB"}, Domain: "locale"},
	}})
	return c
}

func TestCorpusBasics(t *testing.T) {
	c := twoTableCorpus()
	if got := c.NumColumns(); got != 3 {
		t.Errorf("NumColumns = %d, want 3", got)
	}
	if got := len(c.Columns()); got != 3 {
		t.Errorf("Columns() returned %d, want 3", got)
	}
	if got := c.Tables[0].NumRows(); got != 3 {
		t.Errorf("NumRows = %d, want 3", got)
	}
	if got := c.Tables[0].Columns[1].DistinctCount(); got != 2 {
		t.Errorf("DistinctCount = %d, want 2", got)
	}
	if got := c.Tables[0].Columns[1].ID(); got != "t1/date" {
		t.Errorf("ID = %q", got)
	}
}

func TestComputeStats(t *testing.T) {
	s := twoTableCorpus().ComputeStats()
	if s.NumFiles != 2 || s.NumCols != 3 {
		t.Errorf("files/cols = %d/%d, want 2/3", s.NumFiles, s.NumCols)
	}
	wantAvg := (3.0 + 3.0 + 2.0) / 3.0
	if s.AvgValueCount != wantAvg {
		t.Errorf("AvgValueCount = %v, want %v", s.AvgValueCount, wantAvg)
	}
	if s.DomainsRepresented != 3 {
		t.Errorf("DomainsRepresented = %d, want 3", s.DomainsRepresented)
	}
	if !strings.Contains(s.String(), "files=2") {
		t.Errorf("Stats.String() = %q", s.String())
	}
}

func TestSampleColumnsDeterministic(t *testing.T) {
	c := twoTableCorpus()
	a := c.SampleColumns(2, 1, 42)
	b := c.SampleColumns(2, 1, 42)
	if len(a) != 2 || len(b) != 2 {
		t.Fatalf("sample sizes %d/%d, want 2", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Error("sampling must be deterministic for a fixed seed")
		}
	}
	other := c.SampleColumns(2, 1, 43)
	_ = other // different seed may or may not differ; just ensure no panic
	if got := c.SampleColumns(10, 3, 1); len(got) != 2 {
		t.Errorf("minValues filter: got %d cols, want 2 (the 3-value ones)", len(got))
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c := twoTableCorpus()
	if err := c.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumColumns() != c.NumColumns() {
		t.Fatalf("round trip: %d cols, want %d", got.NumColumns(), c.NumColumns())
	}
	if got.Tables[0].Columns[1].Name != "date" {
		t.Errorf("column name lost: %q", got.Tables[0].Columns[1].Name)
	}
	wantVals := c.Tables[0].Columns[1].Values
	gotVals := got.Tables[0].Columns[1].Values
	for i := range wantVals {
		if gotVals[i] != wantVals[i] {
			t.Errorf("value[%d] = %q, want %q", i, gotVals[i], wantVals[i])
		}
	}
}

func TestReadTableRaggedRows(t *testing.T) {
	in := "a,b,c\n1,2,3\n4,5\n6\n"
	tbl, err := ReadTable(strings.NewReader(in), "ragged", ',')
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Columns) != 3 {
		t.Fatalf("columns = %d, want 3", len(tbl.Columns))
	}
	if got := tbl.Columns[2].Values; got[1] != "" || got[2] != "" {
		t.Errorf("missing cells should be empty, got %q", got)
	}
	if tbl.NumRows() != 3 {
		t.Errorf("rows = %d, want 3", tbl.NumRows())
	}
}

func TestReadTableEmpty(t *testing.T) {
	tbl, err := ReadTable(strings.NewReader(""), "empty", ',')
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Columns) != 0 || tbl.NumRows() != 0 {
		t.Errorf("empty file should yield empty table, got %+v", tbl)
	}
}

func TestLoadTableTSV(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.tsv")
	if err := os.WriteFile(path, []byte("p\tq\n1\t2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	tbl, err := LoadTable(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Columns) != 2 || tbl.Columns[1].Values[0] != "2" {
		t.Errorf("TSV parse failed: %+v", tbl)
	}
}

func TestLoadDirMissing(t *testing.T) {
	if _, err := LoadDir(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Error("missing directory should error")
	}
}

func TestDomainHistogram(t *testing.T) {
	c := twoTableCorpus()
	h := c.DomainHistogram()
	if h["date"] != 1 || h["int"] != 1 || h["locale"] != 1 {
		t.Errorf("histogram = %v", h)
	}
	ds := c.SortedDomains()
	if len(ds) != 3 {
		t.Errorf("SortedDomains = %v", ds)
	}
}

// SortedDomains returns domain labels by descending column count.
func (c *Corpus) SortedDomains() []string {
	h := c.DomainHistogram()
	keys := make([]string, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if h[keys[i]] != h[keys[j]] {
			return h[keys[i]] > h[keys[j]]
		}
		return keys[i] < keys[j]
	})
	return keys
}
