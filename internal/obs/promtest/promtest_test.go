package promtest

import (
	"strings"
	"testing"
)

const clean = `# HELP up Whether the target is up.
# TYPE up gauge
up 1
# HELP req_total Requests served.
# TYPE req_total counter
req_total{route="GET /x"} 3
req_total{route="POST /y"} 0
# HELP lat_seconds Latency.
# TYPE lat_seconds histogram
lat_seconds_bucket{route="GET /x",le="0.1"} 1
lat_seconds_bucket{route="GET /x",le="1"} 2
lat_seconds_bucket{route="GET /x",le="+Inf"} 3
lat_seconds_sum{route="GET /x"} 2.5
lat_seconds_count{route="GET /x"} 3
`

func TestLintClean(t *testing.T) {
	if errs := Lint(clean); len(errs) != 0 {
		t.Fatalf("clean exposition flagged: %v", errs)
	}
}

func lintWants(t *testing.T, body, fragment string) {
	t.Helper()
	errs := Lint(body)
	for _, err := range errs {
		if strings.Contains(err.Error(), fragment) {
			return
		}
	}
	t.Fatalf("no error mentioning %q in %v", fragment, errs)
}

func TestLintCatches(t *testing.T) {
	lintWants(t, "orphan 1\n", "no HELP/TYPE")
	lintWants(t, "# TYPE x counter\nx 1\n", "missing HELP")
	lintWants(t, "# HELP x h.\nx 1\n", "missing TYPE")
	lintWants(t, "# HELP x h.\n# TYPE x counter\nx 1\nx 2\n", "duplicate series")
	lintWants(t, "# HELP x h.\n# TYPE x counter\nx{a=\"1\",b=\"2\"} 1\nx{b=\"2\",a=\"1\"} 2\n",
		"duplicate series") // label order must not hide duplicates
	lintWants(t, "# HELP x h.\n# TYPE x counter\nx -1\n", "negative counter")
	lintWants(t, "# HELP x h.\n# TYPE x bogus\n", "bad TYPE")
	lintWants(t, "# HELP h h.\n# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
		"not monotone")
	lintWants(t, "# HELP h h.\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"missing +Inf")
	lintWants(t, "# HELP h h.\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n",
		"!= _count")
	lintWants(t, "# HELP h h.\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n",
		"missing _sum")
	lintWants(t, "# HELP h h.\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\n",
		"missing _count")
	lintWants(t, "# HELP h h.\n# TYPE h histogram\nh 1\n", "bare sample")
	lintWants(t, "# HELP x h.\n# TYPE x gauge\nx{le=\"1\"} 1\n", "le label outside")
	lintWants(t, "# HELP x h.\n# TYPE x gauge\nx{a=1} 1\n", "unquoted")
	lintWants(t, "# HELP x h.\n# TYPE x gauge\nx nope\n", "bad value")
	// Only \\, \" and \n are escapes; label values are UTF-8.
	lintWants(t, "# HELP x h.\n# TYPE x gauge\nx{a=\"a\\tb\"} 1\n", "bad escape")
	lintWants(t, "# HELP x h.\n# TYPE x gauge\nx{a=\"\\u2028\"} 1\n", "bad escape")
	lintWants(t, "# HELP x h.\n# TYPE x gauge\nx{a=\"\\xff\"} 1\n", "bad escape")
	lintWants(t, "# HELP x h.\n# TYPE x gauge\nx{a=\"\xff\"} 1\n", "not valid UTF-8")
}

func TestLintQuotedValues(t *testing.T) {
	// Label values with escaped quotes and braces must not break
	// series parsing.
	body := "# HELP x h.\n# TYPE x gauge\nx{a=\"he said \\\"hi}\\\"\"} 1\n"
	if errs := Lint(body); len(errs) != 0 {
		t.Fatalf("escaped label value flagged: %v", errs)
	}
	// A tab and U+2028 stand for themselves; a backslash and a line
	// feed are escaped.
	body = "# HELP x h.\n# TYPE x gauge\nx{a=\"a\tb\u2028c\\\\d\\ne\"} 1\n"
	if errs := Lint(body); len(errs) != 0 {
		t.Fatalf("label value with a raw tab and U+2028 flagged: %v", errs)
	}
}
