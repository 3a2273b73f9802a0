// Package evalbench implements the paper's §5 evaluation: the benchmark
// construction and precision/recall methodology of §5.1, and one
// regeneration routine for every table and figure of §5.3 (Tables 1-3,
// Figures 10-15), plus the ablations README's "Reproducing the
// evaluation" lists; cmd/avbench prints them.
package evalbench

import (
	"autovalidate/internal/corpus"
	"autovalidate/internal/datagen"
	"autovalidate/internal/index"
	"autovalidate/internal/pattern"
)

// Config scales the whole evaluation. The paper runs at lake scale (7M
// columns, 1000-case benchmarks, m=100); the defaults here reproduce the
// same shapes at laptop scale with thresholds scaled alongside.
type Config struct {
	// EnterpriseTables / GovernmentTables size the synthetic lakes.
	EnterpriseTables, GovernmentTables int
	// BenchCases is the benchmark size (1000 in the paper).
	BenchCases int
	// MaxValuesPerColumn truncates benchmark columns (1000 for BE, 100
	// for BG in the paper).
	MaxValuesPerColumn int
	// TrainFrac is the leading fraction used as training data (10%).
	TrainFrac float64
	// RecallSample caps how many other columns each case is validated
	// against when estimating recall (the paper uses all 999).
	RecallSample int
	// Tau is the indexing token limit τ; M the coverage target m
	// (scaled to lake size); R the FPR target r; Theta the tolerance.
	Tau   int
	M     int
	R     float64
	Theta float64
	// Workers is build/eval parallelism (0 = GOMAXPROCS).
	Workers int
	// Seed fixes all sampling.
	Seed int64
}

// DefaultConfig returns a laptop-scale configuration that runs the full
// suite in minutes.
func DefaultConfig() Config {
	return Config{
		EnterpriseTables:   150,
		GovernmentTables:   100,
		BenchCases:         120,
		MaxValuesPerColumn: 300,
		TrainFrac:          0.10,
		RecallSample:       40,
		Tau:                8,
		M:                  15,
		R:                  0.1,
		Theta:              0.1,
		Seed:               1,
	}
}

// QuickConfig returns a much smaller configuration for unit tests and
// testing.B benchmarks.
func QuickConfig() Config {
	cfg := DefaultConfig()
	cfg.EnterpriseTables = 60
	cfg.GovernmentTables = 40
	cfg.BenchCases = 40
	cfg.RecallSample = 15
	cfg.M = 5
	return cfg
}

// Env holds the materialized corpora, indexes and benchmarks shared by
// the experiments.
type Env struct {
	Cfg  Config
	TE   *corpus.Corpus
	TG   *corpus.Corpus
	IdxE *index.Index
	IdxG *index.Index
	BE   *Benchmark
	BG   *Benchmark
}

// NewEnv generates the lakes, builds both offline indexes, and samples
// both benchmarks.
func NewEnv(cfg Config) *Env {
	te := datagen.Generate(datagen.Enterprise(cfg.EnterpriseTables, cfg.Seed))
	tg := datagen.Generate(datagen.Government(cfg.GovernmentTables, cfg.Seed+1))
	env := &Env{Cfg: cfg, TE: te, TG: tg}
	env.IdxE = env.buildIndex(te, cfg.Tau)
	env.IdxG = env.buildIndex(tg, cfg.Tau)
	env.BE = BuildBenchmark("BE", te, cfg.BenchCases, cfg.MaxValuesPerColumn, cfg.TrainFrac, cfg.Seed+2)
	env.BG = BuildBenchmark("BG", tg, cfg.BenchCases, min(cfg.MaxValuesPerColumn, 100), cfg.TrainFrac, cfg.Seed+3)
	return env
}

func (e *Env) buildIndex(c *corpus.Corpus, tau int) *index.Index {
	enum := pattern.DefaultEnumOptions()
	enum.MaxTokens = tau
	return index.Build(c.Columns(), index.BuildOptions{Enum: enum, Workers: e.Cfg.Workers})
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
