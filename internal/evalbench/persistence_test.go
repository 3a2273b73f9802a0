package evalbench

import (
	"path/filepath"
	"testing"

	"autovalidate/internal/core"
	"autovalidate/internal/index"
)

// TestIndexPersistenceAcrossEvaluation verifies the deployment story:
// rules inferred from a freshly built index and from the same index
// saved to disk and reloaded are identical.
func TestIndexPersistenceAcrossEvaluation(t *testing.T) {
	e := quickEnv(t)
	path := filepath.Join(t.TempDir(), "te.idx")
	if err := e.IdxE.Save(path); err != nil {
		t.Fatal(err)
	}
	reloaded, err := index.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	cases := e.BE.PatternCases()
	if len(cases) > 10 {
		cases = cases[:10]
	}
	for _, ci := range cases {
		train := e.BE.Cases[ci].Train
		opt := core.DefaultOptions()
		opt.M = e.Cfg.M
		a, errA := core.Infer(train, e.IdxE, opt)
		b, errB := core.Infer(train, reloaded, opt)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("case %d: feasibility differs after reload: %v vs %v", ci, errA, errB)
		}
		if errA != nil {
			continue
		}
		if a.Pattern.String() != b.Pattern.String() {
			t.Errorf("case %d: pattern differs after index reload: %q vs %q", ci, a.Pattern, b.Pattern)
		}
	}
}

// TestBenchmarkDeterminism verifies the whole evaluation is reproducible
// for a fixed seed — the property avbench's printed tables rely on.
func TestBenchmarkDeterminism(t *testing.T) {
	cfg := QuickConfig()
	cfg.BenchCases = 12
	cfg.RecallSample = 6
	a := NewEnv(cfg)
	b := NewEnv(cfg)
	if a.IdxE.Size() != b.IdxE.Size() {
		t.Fatalf("index sizes differ: %d vs %d", a.IdxE.Size(), b.IdxE.Size())
	}
	ra := EvaluateMethod(a.BE, NewFMDVRunner(core.FMDVVH, a.IdxE, cfg), cfg)
	rb := EvaluateMethod(b.BE, NewFMDVRunner(core.FMDVVH, b.IdxE, cfg), cfg)
	if ra.Precision != rb.Precision || ra.Recall != rb.Recall {
		t.Errorf("evaluation not deterministic: %v/%v vs %v/%v",
			ra.Precision, ra.Recall, rb.Precision, rb.Recall)
	}
}
