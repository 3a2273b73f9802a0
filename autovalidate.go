// Package autovalidate is a Go implementation of Auto-Validate (Song &
// He, SIGMOD 2021): unsupervised validation of string-valued data columns
// using data-domain patterns inferred from a data lake.
//
// The workflow has two halves, mirroring the paper's architecture
// (Figure 7):
//
//   - Offline, a corpus of lake columns is scanned once into an Index
//     that pre-aggregates, for every candidate pattern, its estimated
//     false-positive rate FPR_T and coverage Cov_T. Unlike the paper's
//     one-shot SCOPE job, the index is incrementally maintainable: newly
//     arrived tables fold in as deltas (Index.IngestColumns, av index
//     -append, the service's POST /ingest), independently built indexes
//     combine with MergeIndexes, and persisted deltas compact
//     deterministically onto a base via generation counters — so a
//     growing lake never forces a full re-scan.
//
//   - Online, Infer selects for a query column the pattern minimizing
//     estimated FPR subject to FPR and coverage constraints (FMDV), with
//     vertical cuts for composite columns (FMDV-V), horizontal cuts for
//     ad-hoc non-conforming values (FMDV-H), or both (FMDV-VH, the
//     recommended default). The resulting Rule validates future batches
//     with a two-sample homogeneity test on the non-conforming fraction.
//
// A minimal end-to-end use:
//
//	corpus, _ := autovalidate.LoadCorpusDir("lake/")
//	idx := autovalidate.BuildIndex(corpus, autovalidate.DefaultBuildOptions())
//	rule, err := autovalidate.Infer(trainValues, idx, autovalidate.DefaultOptions())
//	if err == nil {
//	    report, _ := rule.Validate(tomorrowValues)
//	    if report.Alarm { ... }
//	}
package autovalidate

import (
	"autovalidate/internal/core"
	"autovalidate/internal/corpus"
	"autovalidate/internal/index"
	"autovalidate/internal/monitor"
	"autovalidate/internal/pattern"
	"autovalidate/internal/registry"
	"autovalidate/internal/service"
	"autovalidate/internal/stats"
	"autovalidate/internal/validate"
)

// Core data model, re-exported from the implementation packages.
type (
	// Corpus is a background data lake T: a set of tables of
	// string-valued columns.
	Corpus = corpus.Corpus
	// Table is one data file of the lake.
	Table = corpus.Table
	// Column is one string-valued column.
	Column = corpus.Column
	// CorpusStats are the Table 1 characteristics of a corpus.
	CorpusStats = corpus.Stats

	// Index is the offline index over a corpus (§2.4).
	Index = index.Index
	// IndexEntry is one pattern's pre-aggregated evidence.
	IndexEntry = index.Entry
	// IndexDelta is the evidence of one ingested batch of columns,
	// chained to a base index generation; persist with SaveIndexDelta
	// and fold into a base with Index.ApplyDelta or CompactIndex.
	IndexDelta = index.Delta
	// BuildOptions configure offline indexing.
	BuildOptions = index.BuildOptions

	// Pattern is a data-domain pattern over the Figure 4 hierarchy.
	Pattern = pattern.Pattern
	// EnumOptions configure pattern enumeration (Algorithm 1).
	EnumOptions = pattern.EnumOptions

	// Options configure inference (strategy, r, m, θ, τ).
	Options = core.Options
	// Strategy selects the FMDV variant.
	Strategy = core.Strategy

	// Rule is a learned validation rule.
	Rule = validate.Rule
	// Report is the outcome of validating a batch.
	Report = validate.Report
	// RuleSet validates whole tables, one rule per column.
	RuleSet = validate.RuleSet
	// ColumnReport pairs a column with its report.
	ColumnReport = validate.ColumnReport

	// TwoSampleTest selects the drift test of §4.
	TwoSampleTest = stats.TwoSampleTest

	// Service is the long-running HTTP validation service: one loaded
	// index, /infer and /validate endpoints, and an LRU cache of
	// inferred rules keyed by column fingerprint.
	Service = service.Server
	// ServiceConfig configures a Service.
	ServiceConfig = service.Config
	// ServiceStats snapshots a Service's cache and traffic counters.
	ServiceStats = service.Stats
	// InferRequest / InferResponse and ValidateRequest /
	// ValidateResponse are the service's JSON wire types, exported so
	// Go clients can talk to av serve without hand-rolled structs.
	InferRequest     = service.InferRequest
	InferResponse    = service.InferResponse
	ValidateRequest  = service.ValidateRequest
	ValidateResponse = service.ValidateResponse
	// IngestRequest / IngestResponse are the wire types of the
	// service's POST /ingest endpoint, which folds newly arrived
	// tables into the served index without a restart.
	IngestRequest  = service.IngestRequest
	IngestResponse = service.IngestResponse
	// IngestTable / IngestColumn are the batch elements of an
	// IngestRequest.
	IngestTable  = service.IngestTable
	IngestColumn = service.IngestColumn
	// RuleParams are the per-request inference overrides.
	RuleParams = service.RuleParams

	// StreamRegistry is the durable, versioned store of named streams
	// and their compiled validation rules — the registry half of
	// continuous validation. Persist with its Save method; re-open with
	// LoadStreamRegistry.
	StreamRegistry = registry.Registry
	// Stream is one version of one named stream's rule, with its FMDV
	// evidence snapshot and index-generation provenance.
	Stream = registry.Stream

	// MonitorPolicy configures the continuous-validation engine's
	// escalation ladder (alarm → quarantine → re-infer).
	MonitorPolicy = monitor.Policy
	// MonitorEngine evaluates arriving batches of registered streams,
	// keeping per-stream rolling history and drift state.
	MonitorEngine = monitor.Engine
	// MonitorDecision is one Check outcome: the batch verdict plus the
	// stream's rolling state after folding it in.
	MonitorDecision = monitor.Decision
	// MonitorVerdict is the per-batch record retained in the history
	// window.
	MonitorVerdict = monitor.Verdict
	// MonitorHistory is a snapshot of one stream's rolling state.
	MonitorHistory = monitor.History
	// MonitorAction is the per-batch decision kind.
	MonitorAction = monitor.Action

	// StreamInfo / StreamPutRequest / StreamCheckRequest /
	// StreamCheckResponse / StreamListResponse are the wire types of the
	// service's /streams endpoints.
	StreamInfo          = service.StreamInfo
	StreamPutRequest    = service.StreamPutRequest
	StreamCheckRequest  = service.StreamCheckRequest
	StreamCheckResponse = service.StreamCheckResponse
	StreamListResponse  = service.StreamListResponse
)

// Monitor actions, in escalation order.
const (
	ActionAccept     = monitor.Accept
	ActionAlarm      = monitor.Alarm
	ActionQuarantine = monitor.Quarantine
	ActionReinfer    = monitor.Reinfer
)

// FMDV variants (§2-§4). FMDVVH is the paper's recommended default.
const (
	FMDV   = core.FMDV
	FMDVV  = core.FMDVV
	FMDVH  = core.FMDVH
	FMDVVH = core.FMDVVH
)

// Drift tests (§4): Fisher's exact test (default) and Pearson's
// chi-squared with Yates correction.
const (
	Fisher     = stats.Fisher
	ChiSquared = stats.ChiSquared
)

// Inference failure modes.
var (
	// ErrNoFeasible means no pattern satisfied the FPR and coverage
	// constraints; Auto-Validate conservatively declines to produce a
	// rule rather than risk false alarms.
	ErrNoFeasible = core.ErrNoFeasible
	// ErrEmptyColumn is returned for empty query columns.
	ErrEmptyColumn = core.ErrEmptyColumn
	// ErrEmptyBatch is returned when validating an empty batch.
	ErrEmptyBatch = validate.ErrEmptyBatch
)

// DefaultOptions returns the paper's recommended configuration: FMDV-VH
// with r=0.1, m=100, θ=0.1, τ=8, two-tailed Fisher at significance 0.01.
// Scale m to your lake: it is the minimum number of corpus columns that
// must exhibit a pattern before it is trusted (§2.2's requirement 2).
func DefaultOptions() Options { return core.DefaultOptions() }

// DefaultBuildOptions returns the recommended offline-indexing settings
// (τ=8 with Algorithm 1's coverage pruning).
func DefaultBuildOptions() BuildOptions { return index.DefaultBuildOptions() }

// DefaultEnumOptions returns the default pattern-enumeration settings.
func DefaultEnumOptions() EnumOptions { return pattern.DefaultEnumOptions() }

// LoadCorpusDir reads a directory of .csv / .tsv files into a corpus.
func LoadCorpusDir(dir string) (*Corpus, error) { return corpus.LoadDir(dir) }

// LoadTable reads one CSV/TSV file.
func LoadTable(path string) (*Table, error) { return corpus.LoadTable(path) }

// BuildIndex scans the corpus into an offline index (one pass, parallel).
func BuildIndex(c *Corpus, opt BuildOptions) *Index {
	return index.Build(c.Columns(), opt)
}

// LoadIndex reads an index written by Index.Save (generation counters
// preserved). Files in the older v1/v2 layouts are refused with a
// pointer at a rebuild.
func LoadIndex(path string) (*Index, error) { return index.Load(path) }

// IngestCorpus folds a batch of newly arrived tables into an existing
// index incrementally: only the new columns are scanned (same map-reduce
// dataflow as BuildIndex), their evidence sums into the existing
// aggregates, and the index's generation advances. The
// returned delta can be persisted with SaveIndexDelta for replication or
// later compaction. Enumeration options are taken from the index itself
// so increments stay consistent with the original build.
func IngestCorpus(idx *Index, c *Corpus, opt BuildOptions) (*IndexDelta, error) {
	return idx.IngestColumns(c.Columns(), opt)
}

// BuildIndexDelta scans new columns into a delta against a base index
// without mutating the base; apply it later with Index.ApplyDelta or
// CompactIndex.
func BuildIndexDelta(base *Index, cols []*Column, opt BuildOptions) *IndexDelta {
	return index.BuildDelta(base, cols, opt)
}

// MergeIndexes combines two independently built indexes over disjoint
// column sets into a new index equivalent to building over the union;
// neither input is mutated.
func MergeIndexes(a, b *Index) (*Index, error) { return index.Merge(a, b) }

// CompactIndex applies a chain of deltas onto a base index in generation
// order; an out-of-order or repeated delta is an error, reported before
// anything is applied (the base is left untouched).
func CompactIndex(base *Index, deltas ...*IndexDelta) error {
	return index.Compact(base, deltas...)
}

// SaveIndexDelta / LoadIndexDelta persist one ingest batch's evidence in
// the AVIDX3 format, flagged so a delta file can never be mistaken for a
// full index.
func SaveIndexDelta(path string, d *IndexDelta) error { return index.SaveDelta(path, d) }

// LoadIndexDelta reads a delta written by SaveIndexDelta.
func LoadIndexDelta(path string) (*IndexDelta, error) { return index.LoadDelta(path) }

// NewService builds the long-running validation service over a loaded
// index. Serve its Handler with net/http (or use av serve).
func NewService(cfg ServiceConfig) (*Service, error) { return service.New(cfg) }

// NewStreamRegistry returns an empty stream registry.
func NewStreamRegistry() *StreamRegistry { return registry.New() }

// LoadStreamRegistry reads a registry written by StreamRegistry.Save
// (length-prefixed, CRC-checked sections; corrupt files error rather
// than panic).
func LoadStreamRegistry(path string) (*StreamRegistry, error) { return registry.Load(path) }

// DefaultMonitorPolicy returns the recommended continuous-validation
// policy, all three of its settings: drift tests at significance 0.01
// against the rule's expected FPR bound, quarantine after 3 consecutive
// alarming batches, re-inference after 6.
func DefaultMonitorPolicy() MonitorPolicy { return monitor.DefaultPolicy() }

// NewMonitorEngine builds a continuous-validation engine under the
// policy (an Alpha outside (0, 1) falls back to DefaultMonitorPolicy's;
// a zero QuarantineAfter or ReinferAfter disables that rung). The rest
// is fixed: the first drifting batch of a rule whose index evidence
// went stale re-infers at once, batches under 8 values are accepted
// outright, each stream keeps its last 64 verdicts and a pass-rate EWMA
// weighing the newest batch 0.2, and verdicts report a 95 %
// Clopper–Pearson bound.
func NewMonitorEngine(p MonitorPolicy) *MonitorEngine { return monitor.NewEngine(p) }

// FingerprintColumn returns the cache fingerprint the service assigns to
// a training column under the given inference options.
func FingerprintColumn(values []string, opt Options) string {
	return service.Fingerprint(values, opt)
}

// Infer produces a validation rule for a query column using the chosen
// FMDV variant against the offline index (§2.3, §3, §4).
func Infer(values []string, idx *Index, opt Options) (*Rule, error) {
	return core.Infer(values, idx, opt)
}

// InferNoIndex runs basic FMDV by scanning corpus columns directly for
// every hypothesis — the Figure 14 "no-index" reference point. Prefer
// Infer with a prebuilt Index.
func InferNoIndex(values []string, cols []*Column, opt Options) (*Rule, error) {
	return core.InferNoIndex(values, cols, opt)
}

// NewRuleSet returns an empty per-column rule set.
func NewRuleSet() *RuleSet { return validate.NewRuleSet() }

// InferTable infers one rule per column of a table, skipping columns
// where no feasible pattern exists, and returns the resulting rule set
// together with the per-column inference errors. The columns share one
// leaf memo, so a pattern a column's segment needs is searched for once;
// each rule is the one Infer returns.
func InferTable(t *Table, idx *Index, opt Options) (*RuleSet, map[string]error) {
	rs := validate.NewRuleSet()
	errs := map[string]error{}
	memo := core.NewMemo(idx, opt)
	for _, col := range t.Columns {
		rule, err := memo.Infer(col.Values)
		if err != nil {
			errs[col.Name] = err
			continue
		}
		rs.Add(col.Name, rule)
	}
	return rs, errs
}
