package obs

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// ExpositionContentType is the Prometheus text format version served
// by every /metrics endpoint in the cluster.
const ExpositionContentType = "text/plain; version=0.0.4; charset=utf-8"

// LatencyBuckets are the default upper bounds (seconds) for
// request-duration histograms — a standard latency ladder from 500µs
// to 10s. Fixed buckets keep observation lock-free (one atomic
// increment) and make the exposition directly scrapeable.
var LatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket duration histogram with atomic
// counters. counts[i] holds bucket i's own observations
// (non-cumulative; Snapshot accumulates), with the final slot
// catching everything above the last bound (+Inf).
type Histogram struct {
	bounds   []float64
	counts   []atomic.Uint64
	sumNanos atomic.Int64
}

// NewHistogram builds a histogram over the given upper bounds
// (seconds, ascending); nil means LatencyBuckets.
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = LatencyBuckets
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	s := d.Seconds()
	i := 0
	for i < len(h.bounds) && s > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sumNanos.Add(int64(d))
}

// Snapshot returns the cumulative bucket counts (one per bound, plus
// +Inf last), the total observation count, and the duration sum in
// seconds. Concurrent observations may land between reads of
// different counters; the skew is at most a few in-flight requests.
func (h *Histogram) Snapshot() (cumulative []uint64, count uint64, sumSeconds float64) {
	cumulative = make([]uint64, len(h.counts))
	var running uint64
	for i := range h.counts {
		running += h.counts[i].Load()
		cumulative[i] = running
	}
	return cumulative, running, time.Duration(h.sumNanos.Load()).Seconds()
}

// MetricWriter accumulates Prometheus text exposition (version 0.0.4)
// — hand-written rather than a client-library dependency; the format
// is a dozen lines of name/value pairs. Shared by the service's
// /metrics and the gateway's /gateway/metrics so both speak the same
// dialect and are linted by the same parser test.
type MetricWriter struct {
	b strings.Builder
}

// Label renders one k="v" pair for use in a sample's label string;
// join multiple with commas. The value is spelled as the text format
// defines it: valid UTF-8 (an invalid byte becomes U+FFFD), with only
// backslash, double quote and line feed escaped.
func Label(k, v string) string {
	return k + `="` + labelEscaper.Replace(strings.ToValidUTF8(v, "\uFFFD")) + `"`
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// Family emits the # HELP / # TYPE header for a metric family. kind
// is "counter", "gauge", or "histogram". Samples for the family must
// follow before the next Family call.
func (mw *MetricWriter) Family(name, help, kind string) {
	fmt.Fprintf(&mw.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
}

// Int emits one integer-valued sample; labels is a pre-rendered
// `k="v",...` string, empty for an unlabeled sample.
func (mw *MetricWriter) Int(name, labels string, value uint64) {
	if labels == "" {
		fmt.Fprintf(&mw.b, "%s %d\n", name, value)
	} else {
		fmt.Fprintf(&mw.b, "%s{%s} %d\n", name, labels, value)
	}
}

// Float emits one float-valued sample.
func (mw *MetricWriter) Float(name, labels string, value float64) {
	if labels == "" {
		fmt.Fprintf(&mw.b, "%s %g\n", name, value)
	} else {
		fmt.Fprintf(&mw.b, "%s{%s} %g\n", name, labels, value)
	}
}

// Counter emits a complete single-sample counter family.
func (mw *MetricWriter) Counter(name, help string, value uint64) {
	mw.Family(name, help, "counter")
	mw.Int(name, "", value)
}

// Gauge emits a complete single-sample gauge family.
func (mw *MetricWriter) Gauge(name, help string, value float64) {
	mw.Family(name, help, "gauge")
	mw.Float(name, "", value)
}

// Histogram emits one histogram series (buckets in cumulative form,
// _sum, _count) under an already-emitted Family(..., "histogram")
// header. Series with zero observations are skipped to keep the
// exposition small; labels must not contain `le`.
func (mw *MetricWriter) Histogram(name, labels string, h *Histogram) {
	cum, count, sum := h.Snapshot()
	if count == 0 {
		return
	}
	sep := ""
	if labels != "" {
		sep = ","
	}
	for i, bound := range h.bounds {
		fmt.Fprintf(&mw.b, "%s_bucket{%s%sle=%q} %d\n",
			name, labels, sep, strconv.FormatFloat(bound, 'g', -1, 64), cum[i])
	}
	fmt.Fprintf(&mw.b, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, cum[len(cum)-1])
	if labels == "" {
		fmt.Fprintf(&mw.b, "%s_sum %g\n%s_count %d\n", name, sum, name, count)
	} else {
		fmt.Fprintf(&mw.b, "%s_sum{%s} %g\n%s_count{%s} %d\n", name, labels, sum, name, labels, count)
	}
}

// String returns the accumulated exposition.
func (mw *MetricWriter) String() string { return mw.b.String() }

// WriteResponse serves the accumulated exposition as a 200 with the
// Prometheus content type.
func (mw *MetricWriter) WriteResponse(w http.ResponseWriter) {
	w.Header().Set("Content-Type", ExpositionContentType)
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, mw.b.String())
}
