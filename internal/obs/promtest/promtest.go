// Package promtest lints Prometheus text exposition (version 0.0.4)
// the way a scraper would: every sample must belong to a family with
// # HELP and # TYPE declared first, series must be unique, and
// histograms must be internally consistent (monotone cumulative
// buckets, an +Inf bucket equal to _count, a _sum). It exists so the
// hand-written exposition in internal/service and internal/cluster is
// verified by a parser, not by substring checks that drift from the
// format.
package promtest

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"
)

type familyInfo struct {
	help bool
	typ  string
}

type histSeries struct {
	fam     string
	labels  string // normalized, without le
	buckets map[float64]float64
	count   float64
	hasCnt  bool
	hasSum  bool
	line    int
}

// Lint parses body as Prometheus text exposition and returns every
// format violation found (nil for a clean exposition).
func Lint(body string) []error {
	var errs []error
	fail := func(line int, format string, args ...any) {
		errs = append(errs, fmt.Errorf("line %d: %s", line, fmt.Sprintf(format, args...)))
	}

	families := map[string]*familyInfo{}
	seen := map[string]int{} // full series key -> first line
	hists := map[string]*histSeries{}

	for i, raw := range strings.Split(body, "\n") {
		line := i + 1
		text := strings.TrimRight(raw, " \t")
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			kind, name, rest, ok := parseComment(text)
			if !ok {
				continue // free-form comment, ignored per spec
			}
			fam := families[name]
			if fam == nil {
				fam = &familyInfo{}
				families[name] = fam
			}
			switch kind {
			case "HELP":
				if fam.help {
					fail(line, "duplicate HELP for %s", name)
				}
				if rest == "" {
					fail(line, "empty HELP for %s", name)
				}
				fam.help = true
			case "TYPE":
				if fam.typ != "" {
					fail(line, "duplicate TYPE for %s", name)
				}
				switch rest {
				case "counter", "gauge", "histogram", "untyped":
					fam.typ = rest
				default:
					fail(line, "bad TYPE %q for %s", rest, name)
					fam.typ = "untyped"
				}
			}
			continue
		}

		name, labels, value, err := parseSample(text)
		if err != nil {
			fail(line, "unparseable sample: %v", err)
			continue
		}

		// Resolve the family: exact name, or histogram child
		// (_bucket/_sum/_count) of a declared histogram.
		famName, suffix := name, ""
		if families[name] == nil {
			for _, sfx := range []string{"_bucket", "_sum", "_count"} {
				base := strings.TrimSuffix(name, sfx)
				if base != name && families[base] != nil && families[base].typ == "histogram" {
					famName, suffix = base, sfx
					break
				}
			}
		}
		fam := families[famName]
		switch {
		case fam == nil:
			fail(line, "sample %s has no HELP/TYPE", name)
			continue
		case !fam.help:
			fail(line, "sample %s missing HELP", name)
		case fam.typ == "":
			fail(line, "sample %s missing TYPE", name)
		}
		if fam != nil && fam.typ == "histogram" && suffix == "" {
			fail(line, "histogram %s must only emit _bucket/_sum/_count, got bare sample", famName)
		}

		norm, le, hasLE, err := normalizeLabels(labels)
		if err != nil {
			fail(line, "bad labels on %s: %v", name, err)
			continue
		}
		if hasLE && suffix != "_bucket" {
			fail(line, "le label outside a _bucket sample on %s", name)
		}

		key := name + "{" + norm + "}"
		if hasLE {
			key += "@le=" + le
		}
		if first, dup := seen[key]; dup {
			fail(line, "duplicate series %s (first at line %d)", key, first)
		} else {
			seen[key] = line
		}

		if math.IsNaN(value) || math.IsInf(value, 0) {
			fail(line, "non-finite value on %s", name)
		}
		if fam != nil && fam.typ == "counter" && value < 0 {
			fail(line, "negative counter %s", name)
		}

		if suffix != "" {
			hkey := famName + "{" + norm + "}"
			hs := hists[hkey]
			if hs == nil {
				hs = &histSeries{fam: famName, labels: norm, buckets: map[float64]float64{}, line: line}
				hists[hkey] = hs
			}
			switch suffix {
			case "_bucket":
				if !hasLE {
					fail(line, "%s_bucket without le label", famName)
					continue
				}
				bound, err := parseBound(le)
				if err != nil {
					fail(line, "bad le %q on %s", le, famName)
					continue
				}
				hs.buckets[bound] = value
			case "_count":
				hs.count, hs.hasCnt = value, true
			case "_sum":
				hs.hasSum = true
			}
		}
	}

	// Cross-sample histogram consistency.
	hkeys := make([]string, 0, len(hists))
	for k := range hists {
		hkeys = append(hkeys, k)
	}
	sort.Strings(hkeys)
	for _, k := range hkeys {
		hs := hists[k]
		where := fmt.Sprintf("histogram %s{%s}", hs.fam, hs.labels)
		if len(hs.buckets) == 0 {
			fail(hs.line, "%s has no buckets", where)
			continue
		}
		bounds := make([]float64, 0, len(hs.buckets))
		for b := range hs.buckets {
			bounds = append(bounds, b)
		}
		sort.Float64s(bounds)
		if !math.IsInf(bounds[len(bounds)-1], 1) {
			fail(hs.line, "%s missing +Inf bucket", where)
		}
		prev := -1.0
		for _, b := range bounds {
			if hs.buckets[b] < prev {
				fail(hs.line, "%s buckets not monotone at le=%g (%g < %g)", where, b, hs.buckets[b], prev)
			}
			prev = hs.buckets[b]
		}
		if !hs.hasCnt {
			fail(hs.line, "%s missing _count", where)
		} else if inf := hs.buckets[math.Inf(1)]; math.IsInf(bounds[len(bounds)-1], 1) && inf != hs.count {
			fail(hs.line, "%s +Inf bucket %g != _count %g", where, inf, hs.count)
		}
		if !hs.hasSum {
			fail(hs.line, "%s missing _sum", where)
		}
	}
	return errs
}

func parseComment(text string) (kind, name, rest string, ok bool) {
	fields := strings.SplitN(text, " ", 4)
	if len(fields) < 3 || fields[0] != "#" {
		return "", "", "", false
	}
	kind = fields[1]
	if kind != "HELP" && kind != "TYPE" {
		return "", "", "", false
	}
	name = fields[2]
	if len(fields) == 4 {
		rest = fields[3]
	}
	return kind, name, rest, true
}

func parseSample(text string) (name, labels string, value float64, err error) {
	rest := text
	if i := strings.IndexByte(text, '{'); i >= 0 && (strings.IndexByte(text, ' ') == -1 || i < strings.IndexByte(text, ' ')) {
		name = text[:i]
		end, err := closingBrace(text, i)
		if err != nil {
			return "", "", 0, err
		}
		labels = text[i+1 : end]
		rest = text[end+1:]
	} else {
		j := strings.IndexByte(text, ' ')
		if j < 0 {
			return "", "", 0, fmt.Errorf("no value in %q", text)
		}
		name = text[:j]
		rest = text[j:]
	}
	if name == "" {
		return "", "", 0, fmt.Errorf("empty metric name in %q", text)
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 { // optional timestamp
		return "", "", 0, fmt.Errorf("bad value section %q", rest)
	}
	value, err = strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return "", "", 0, fmt.Errorf("bad value %q: %w", fields[0], err)
	}
	return name, labels, value, nil
}

// closingBrace finds the matching '}' for the '{' at open, skipping
// quoted label values (which may contain escaped quotes and braces).
func closingBrace(text string, open int) (int, error) {
	inQuote, escaped := false, false
	for i := open + 1; i < len(text); i++ {
		c := text[i]
		switch {
		case escaped:
			escaped = false
		case c == '\\' && inQuote:
			escaped = true
		case c == '"':
			inQuote = !inQuote
		case c == '}' && !inQuote:
			return i, nil
		}
	}
	return 0, fmt.Errorf("unterminated label set in %q", text)
}

// normalizeLabels parses a label string into sorted k="v" form with le
// split out, so duplicate detection is order-insensitive.
func normalizeLabels(labels string) (norm, le string, hasLE bool, err error) {
	if strings.TrimSpace(labels) == "" {
		return "", "", false, nil
	}
	var pairs []string
	rest := labels
	for rest != "" {
		eq := strings.IndexByte(rest, '=')
		if eq <= 0 {
			return "", "", false, fmt.Errorf("missing = in %q", rest)
		}
		key := strings.TrimSpace(rest[:eq])
		rest = rest[eq+1:]
		if len(rest) == 0 || rest[0] != '"' {
			return "", "", false, fmt.Errorf("unquoted value for %s", key)
		}
		end := -1
		for i := 1; i < len(rest); i++ {
			if rest[i] == '\\' {
				// The format defines only \\, \" and \n.
				if i+1 < len(rest) && !strings.ContainsRune(`\"n`, rune(rest[i+1])) {
					return "", "", false, fmt.Errorf("bad escape \\%c in value for %s", rest[i+1], key)
				}
				i++
				continue
			}
			if rest[i] == '"' {
				end = i
				break
			}
		}
		if end < 0 {
			return "", "", false, fmt.Errorf("unterminated value for %s", key)
		}
		val := rest[1:end]
		if !utf8.ValidString(val) {
			return "", "", false, fmt.Errorf("value for %s is not valid UTF-8", key)
		}
		rest = rest[end+1:]
		if rest != "" {
			if rest[0] != ',' {
				return "", "", false, fmt.Errorf("junk after value for %s: %q", key, rest)
			}
			rest = strings.TrimSpace(rest[1:])
		}
		if key == "le" {
			if hasLE {
				return "", "", false, fmt.Errorf("duplicate le")
			}
			le, hasLE = val, true
			continue
		}
		pairs = append(pairs, key+`="`+val+`"`)
	}
	sort.Strings(pairs)
	return strings.Join(pairs, ","), le, hasLE, nil
}

func parseBound(le string) (float64, error) {
	if le == "+Inf" {
		return math.Inf(1), nil
	}
	return strconv.ParseFloat(le, 64)
}
