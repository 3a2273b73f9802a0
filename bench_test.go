// Benchmarks regenerating every table and figure of the paper's
// evaluation (§5) at laptop scale, plus the ablations, and a few
// micro-benchmarks of the core machinery. Each experiment bench reports
// its headline numbers as custom metrics so `go test -bench=.` output
// doubles as a compact reproduction log; `go run ./cmd/avbench` prints
// the full tables. Each micro-benchmark names the BENCHMARK.json metric
// it is the go-test view of.
package autovalidate_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"autovalidate"
	"autovalidate/internal/core"
	"autovalidate/internal/datagen"
	"autovalidate/internal/evalbench"
)

var (
	benchOnce sync.Once
	benchEnv  *evalbench.Env
)

// benchEnvironment builds one shared small-scale environment; building
// it is itself timed by BenchmarkOfflineIndexBuild.
func benchEnvironment(b *testing.B) *evalbench.Env {
	b.Helper()
	benchOnce.Do(func() {
		cfg := evalbench.QuickConfig()
		benchEnv = evalbench.NewEnv(cfg)
	})
	return benchEnv
}

func reportPR(b *testing.B, rows []evalbench.MethodResult, name string) {
	b.Helper()
	for _, r := range rows {
		if r.Name == name {
			b.ReportMetric(r.Precision, name+"-P")
			b.ReportMetric(r.Recall, name+"-R")
			return
		}
	}
}

// BenchmarkTable1CorpusStats regenerates Table 1 (corpus characteristics).
func BenchmarkTable1CorpusStats(b *testing.B) {
	env := benchEnvironment(b)
	for i := 0; i < b.N; i++ {
		rows := env.Table1()
		if len(rows) != 2 {
			b.Fatal("table 1 must have two corpora")
		}
		b.ReportMetric(float64(rows[0].Stats.NumCols), "TE-cols")
		b.ReportMetric(float64(rows[1].Stats.NumCols), "TG-cols")
	}
}

// BenchmarkFigure10aEnterprisePR regenerates Figure 10(a): all methods'
// precision/recall on the Enterprise benchmark.
func BenchmarkFigure10aEnterprisePR(b *testing.B) {
	env := benchEnvironment(b)
	for i := 0; i < b.N; i++ {
		rows := env.Figure10("BE")
		reportPR(b, rows, "FMDV-VH")
		reportPR(b, rows, "TFDV")
	}
}

// BenchmarkFigure10bGovernmentPR regenerates Figure 10(b) on the
// Government benchmark.
func BenchmarkFigure10bGovernmentPR(b *testing.B) {
	env := benchEnvironment(b)
	for i := 0; i < b.N; i++ {
		rows := env.Figure10("BG")
		reportPR(b, rows, "FMDV-VH")
	}
}

// BenchmarkTable2GroundTruth regenerates Table 2: programmatic vs
// manually-curated evaluation.
func BenchmarkTable2GroundTruth(b *testing.B) {
	env := benchEnvironment(b)
	for i := 0; i < b.N; i++ {
		rows := env.Table2()
		b.ReportMetric(rows[0].Precision, "prog-P")
		b.ReportMetric(rows[1].Precision, "truth-P")
	}
}

// BenchmarkFigure11CaseByCase regenerates the Figure 11 case-by-case F1
// comparison.
func BenchmarkFigure11CaseByCase(b *testing.B) {
	env := benchEnvironment(b)
	for i := 0; i < b.N; i++ {
		rows := env.Figure11(25)
		if len(rows) == 0 {
			b.Fatal("no figure 11 rows")
		}
	}
}

// BenchmarkFigure12aSensitivityR regenerates Figure 12(a).
func BenchmarkFigure12aSensitivityR(b *testing.B) {
	env := benchEnvironment(b)
	for i := 0; i < b.N; i++ {
		pts := env.Figure12a([]float64{0, 0.04, 0.1})
		if len(pts) == 0 {
			b.Fatal("no points")
		}
	}
}

// BenchmarkFigure12bSensitivityM regenerates Figure 12(b).
func BenchmarkFigure12bSensitivityM(b *testing.B) {
	env := benchEnvironment(b)
	for i := 0; i < b.N; i++ {
		pts := env.Figure12b([]int{0, 10, 100})
		if len(pts) == 0 {
			b.Fatal("no points")
		}
	}
}

// BenchmarkFigure12cSensitivityTau regenerates Figure 12(c), rebuilding
// the index per τ.
func BenchmarkFigure12cSensitivityTau(b *testing.B) {
	env := benchEnvironment(b)
	for i := 0; i < b.N; i++ {
		pts := env.Figure12c([]int{8, 13})
		if len(pts) == 0 {
			b.Fatal("no points")
		}
	}
}

// BenchmarkFigure12dSensitivityTheta regenerates Figure 12(d).
func BenchmarkFigure12dSensitivityTheta(b *testing.B) {
	env := benchEnvironment(b)
	for i := 0; i < b.N; i++ {
		pts := env.Figure12d([]float64{0, 0.1, 0.3, 0.5})
		if len(pts) == 0 {
			b.Fatal("no points")
		}
	}
}

// BenchmarkFigure13aPatternsByTokens regenerates Figure 13(a).
func BenchmarkFigure13aPatternsByTokens(b *testing.B) {
	env := benchEnvironment(b)
	for i := 0; i < b.N; i++ {
		f := env.Figure13Analysis()
		b.ReportMetric(float64(f.IndexSize), "patterns")
	}
}

// BenchmarkFigure13bPatternsByFrequency regenerates Figure 13(b); the
// tail-share metric quantifies the power law.
func BenchmarkFigure13bPatternsByFrequency(b *testing.B) {
	env := benchEnvironment(b)
	for i := 0; i < b.N; i++ {
		f := env.Figure13Analysis()
		b.ReportMetric(f.TailShare, "tail-share")
	}
}

// BenchmarkFigure14Latency regenerates the Figure 14 latency comparison.
func BenchmarkFigure14Latency(b *testing.B) {
	env := benchEnvironment(b)
	for i := 0; i < b.N; i++ {
		rows := env.Figure14Latency(5, 40)
		for _, r := range rows {
			if r.Method == "FMDV-VH" {
				b.ReportMetric(r.AvgMillis, "FMDV-VH-ms")
			}
		}
	}
}

// BenchmarkTable3UserStudy regenerates the Table 3 user study with
// simulated programmers.
func BenchmarkTable3UserStudy(b *testing.B) {
	env := benchEnvironment(b)
	for i := 0; i < b.N; i++ {
		rows := env.Table3UserStudy(10)
		b.ReportMetric(rows[len(rows)-1].Precision, "FMDV-VH-P")
	}
}

// BenchmarkFigure15KaggleDrift regenerates the Figure 15 schema-drift
// case study over the 11 synthetic Kaggle tasks.
func BenchmarkFigure15KaggleDrift(b *testing.B) {
	env := benchEnvironment(b)
	for i := 0; i < b.N; i++ {
		rows, err := env.Figure15Kaggle()
		if err != nil {
			b.Fatal(err)
		}
		detected := 0
		for _, r := range rows {
			if r.Detected {
				detected++
			}
		}
		b.ReportMetric(float64(detected), "detected-of-11")
	}
}

// BenchmarkAblationCMDV compares the FMDV objective against the CMDV
// alternative of §2.3.
func BenchmarkAblationCMDV(b *testing.B) {
	env := benchEnvironment(b)
	for i := 0; i < b.N; i++ {
		rows := env.AblationCMDV()
		b.ReportMetric(rows[0].F1, "FMDV-F1")
		b.ReportMetric(rows[1].F1, "CMDV-F1")
	}
}

// BenchmarkAblationMaxAggregation compares Eq. 8's sum against max.
func BenchmarkAblationMaxAggregation(b *testing.B) {
	env := benchEnvironment(b)
	for i := 0; i < b.N; i++ {
		rows := env.AblationMaxAggregation()
		b.ReportMetric(rows[0].F1, "sum-F1")
		b.ReportMetric(rows[1].F1, "max-F1")
	}
}

// BenchmarkAblationDriftTest compares Fisher's exact test with
// chi-squared as the §4 distributional test.
func BenchmarkAblationDriftTest(b *testing.B) {
	env := benchEnvironment(b)
	for i := 0; i < b.N; i++ {
		rows := env.AblationDriftTest()
		b.ReportMetric(rows[0].F1, "fisher-F1")
		b.ReportMetric(rows[1].F1, "chi2-F1")
	}
}

// BenchmarkAblationIndexCaps compares offline-index support thresholds.
func BenchmarkAblationIndexCaps(b *testing.B) {
	env := benchEnvironment(b)
	for i := 0; i < b.N; i++ {
		rows := env.AblationIndexSupport()
		b.ReportMetric(rows[0].F1, "support05-F1")
		b.ReportMetric(rows[1].F1, "support50-F1")
	}
}

// --- Micro-benchmarks of the core machinery ---

// BenchmarkOfflineIndexBuild times one full offline scan of a
// 60-table lake (the paper's 3-hour cluster job, at laptop scale): the
// rebuild baseline for BenchmarkIndexIngestOneTable.
// Metric: setup_s, whose lake build is this scan over 150 tables.
func BenchmarkOfflineIndexBuild(b *testing.B) {
	lake := datagen.Generate(datagen.Enterprise(60, 5))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := autovalidate.BuildIndex(lake, autovalidate.DefaultBuildOptions())
		if idx.Size() == 0 {
			b.Fatal("empty index")
		}
	}
}

// BenchmarkIndexIngestOneTable ingests a one-table arrival as a delta
// into a prebuilt 60-table index: only the new columns are enumerated
// and their keys merged, which is why it beats the rebuild baseline by
// orders of magnitude.
// Metric: index.ingest_columns_ms.
func BenchmarkIndexIngestOneTable(b *testing.B) {
	lake := datagen.Generate(datagen.Enterprise(60, 5))
	arrival := datagen.Generate(datagen.Enterprise(1, 99)).Columns()
	idx := autovalidate.BuildIndex(lake, autovalidate.DefaultBuildOptions())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := idx.IngestColumns(arrival, autovalidate.DefaultBuildOptions())
		if err != nil {
			b.Fatal(err)
		}
		if d.Evidence.Size() == 0 {
			b.Fatal("empty delta")
		}
	}
}

// benchService builds a validation service over the shared environment's
// Enterprise index.
func benchService(b *testing.B) *autovalidate.Service {
	b.Helper()
	env := benchEnvironment(b)
	opt := core.DefaultOptions()
	opt.M = env.Cfg.M
	svc, err := autovalidate.NewService(autovalidate.ServiceConfig{Index: env.IdxE, Options: &opt})
	if err != nil {
		b.Fatal(err)
	}
	return svc
}

// serviceInfer posts one /infer request against an httptest server.
func serviceInfer(b *testing.B, url string, body []byte) autovalidate.InferResponse {
	b.Helper()
	resp, err := http.Post(url+"/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	var out autovalidate.InferResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		b.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("/infer status %d", resp.StatusCode)
	}
	return out
}

// BenchmarkServiceInferCached times /infer on a repeated column: after
// the first request every inference is an LRU hit, the paper's recurring
// -pipeline serving path.
// Metric: service.infer_warm_ms.
func BenchmarkServiceInferCached(b *testing.B) {
	svc := benchService(b)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	vals, err := datagen.FreshColumn("timestamp_us", 100, 3)
	if err != nil {
		b.Fatal(err)
	}
	body, _ := json.Marshal(autovalidate.InferRequest{Values: vals})
	serviceInfer(b, ts.URL, body) // warm the cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := serviceInfer(b, ts.URL, body)
		if !out.Cached {
			b.Fatal("cached benchmark missed the cache")
		}
	}
}

// BenchmarkServiceCheckColumnar times POST /streams/{name}/check on a
// 20 000-value timestamp_us column, handler-direct (no network): body
// read, column split, the CountMisses kernel, monitor statistics and
// the response. MB/s is the body rate and B/op what one request
// allocates.
// Metric: service.decode_mb_per_s (and service.handler_bytes_per_op).
func BenchmarkServiceCheckColumnar(b *testing.B) {
	h := benchService(b).Handler()
	train, err := datagen.FreshColumn("timestamp_us", 120, 3)
	if err != nil {
		b.Fatal(err)
	}
	put, _ := json.Marshal(autovalidate.StreamPutRequest{Train: train})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/streams/feed.ts", bytes.NewReader(put)))
	if rec.Code != http.StatusOK {
		b.Fatalf("PUT /streams/feed.ts: status %d: %s", rec.Code, rec.Body)
	}
	values, err := datagen.FreshColumn("timestamp_us", 20000, 4)
	if err != nil {
		b.Fatal(err)
	}
	var csv, ndjson bytes.Buffer
	for _, v := range values {
		fmt.Fprintf(&csv, "%s\n", v)
		fmt.Fprintf(&ndjson, "%q\n", v)
	}
	for _, enc := range []struct {
		name, contentType string
		body              []byte
	}{
		{"csv", "text/csv", csv.Bytes()},
		{"ndjson", "application/x-ndjson", ndjson.Bytes()},
	} {
		b.Run(enc.name, func(b *testing.B) {
			b.SetBytes(int64(len(enc.body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				req := httptest.NewRequest(http.MethodPost, "/streams/feed.ts/check", bytes.NewReader(enc.body))
				req.Header.Set("Content-Type", enc.contentType)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("check: status %d: %s", rec.Code, rec.Body)
				}
			}
		})
	}
}
