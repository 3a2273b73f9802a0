package pattern_test

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"autovalidate/internal/datagen"
	"autovalidate/internal/pattern"
)

// agreeOptions are the enumeration settings the repo runs with — offline
// indexing (τ=8), the paper's τ=13, a DP leaf (full support), a
// horizontal cut — and two that make the caps bind.
func agreeOptions() map[string]pattern.EnumOptions {
	index := pattern.DefaultEnumOptions()
	index.MaxTokens = 8
	leaf := index
	leaf.MinSupport = 1.0
	cut := index
	cut.MinSupport = 0.9
	capped := index
	capped.MaxPatterns = 7
	fewValues := cut
	fewValues.MaxValues = 5
	fine := index
	fine.IncludeAlnumPass = false
	return map[string]pattern.EnumOptions{
		"tau13": pattern.DefaultEnumOptions(), "index": index, "leaf": leaf, "cut": cut,
		"capped": capped, "fewValues": fewValues, "fineOnly": fine,
	}
}

// checkAgree holds Enumerate to the oracle: the same totals and the same
// candidates as a set — keys, tokens and supports — in whatever order.
// It holds Visit to the oracle too: the same totals, and each of the
// oracle's candidates handed over exactly once, with its tokens and
// support, beside the column's total.
func checkAgree(t *testing.T, values []string, opt pattern.EnumOptions) {
	t.Helper()
	got := byKey(pattern.Enumerate(values, opt))
	want := byKey(pattern.OracleEnumerate(values, opt))
	if len(want.Candidates) == 0 {
		want.Candidates = nil // the oracle returns an empty slice, Enumerate nil
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Enumerate disagrees with the oracle on %q (%+v):\n got %s\nwant %s",
			values, opt, describe(got), describe(want))
	}
	for _, c := range got.Candidates {
		if c.Key != c.Pattern.Key() {
			t.Fatalf("candidate key %q is not its pattern's key %q", c.Key, c.Pattern.Key())
		}
	}
	checkVisit(t, values, opt, want)
}

// checkVisit holds Visit to want, the oracle's result: the same totals,
// and each of want's candidates handed over exactly once, with its tokens
// and support, beside the column's total.
func checkVisit(t *testing.T, values []string, opt pattern.EnumOptions, want pattern.EnumResult) {
	t.Helper()
	visited := map[string]pattern.Candidate{}
	total, wide := pattern.Visit(values, opt, func(k []byte, toks []pattern.Tok, matched, total int) {
		key := string(k)
		if _, ok := visited[key]; ok {
			t.Fatalf("Visit on %q (%+v) hands over %q twice", values, opt, key)
		}
		if total != want.Total {
			t.Fatalf("Visit on %q (%+v) hands over %q beside a total of %d, want %d", values, opt, key, total, want.Total)
		}
		visited[key] = pattern.Candidate{Pattern: pattern.Pattern{Toks: slices.Clone(toks)}, Key: key, Matched: matched}
	})
	if total != want.Total || wide != want.Wide || len(visited) != len(want.Candidates) {
		t.Fatalf("Visit on %q (%+v): total %d, wide %d, %d candidates; the oracle has %s",
			values, opt, total, wide, len(visited), describe(want))
	}
	for _, c := range want.Candidates {
		if v, ok := visited[c.Key]; !ok || v.Matched != c.Matched || !reflect.DeepEqual(v.Pattern.Toks, c.Pattern.Toks) {
			t.Fatalf("Visit on %q (%+v): candidate %q handed over %v, as %v ×%d; the oracle's is %v ×%d",
				values, opt, c.Key, ok, v.Pattern.Toks, v.Matched, c.Pattern.Toks, c.Matched)
		}
	}
}

// byKey sorts the candidates by key, in place: a result's order is
// not part of it.
func byKey(res pattern.EnumResult) pattern.EnumResult {
	slices.SortFunc(res.Candidates, func(a, b pattern.Candidate) int { return strings.Compare(a.Key, b.Key) })
	return res
}

// describe prints the totals and the first candidates, by key.
func describe(res pattern.EnumResult) string {
	res = byKey(res)
	var sb strings.Builder
	fmt.Fprintf(&sb, "total=%d wide=%d candidates=%d", res.Total, res.Wide, len(res.Candidates))
	for i, c := range res.Candidates {
		if i == 12 {
			sb.WriteString(" …")
			break
		}
		fmt.Fprintf(&sb, " [%s ×%d]", c.Key, c.Matched)
	}
	return sb.String()
}

func allDomains() []datagen.Domain {
	var out []datagen.Domain
	out = append(out, datagen.EnterpriseDomains()...)
	out = append(out, datagen.GovernmentDomains()...)
	return append(out, datagen.NLDomains()...)
}

// Property: over every generator domain, Enumerate returns exactly the
// oracle's result — same patterns, keys and supports, as a set.
func TestEnumerateAgreesWithOracle(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 3
	}
	for _, d := range allDomains() {
		for seed := 0; seed < seeds; seed++ {
			values, err := datagen.FreshColumn(d.Name, 40, int64(100+seed))
			if err != nil {
				t.Fatal(err)
			}
			for name, opt := range agreeOptions() {
				if name == "tau13" && seed > 2 {
					continue // the widest cross-products; three columns each suffice
				}
				checkAgree(t, values, opt)
			}
		}
	}
}

// Mixed shapes, empties, duplicates, wide values and literal
// metacharacters, which no generator domain combines; and, last, columns
// whose shapes or positions are shared by all, most or exactly half of
// the weight, or by a shape met late or wide under the fine pass only.
func TestEnumerateAgreesWithOracleHandCases(t *testing.T) {
	late := []string{"x-y", "a.b"} // the digit shape qualifies at 90 %, met third
	for i := 1; i <= 18; i++ {
		late = append(late, fmt.Sprint(i))
	}
	wide := []string{"x-1"} // too wide for the fine pass at τ = 8, one run merged
	for i := 0; i < 9; i++ {
		wide = append(wide, fmt.Sprintf("a%db%dc%dd%de%d", i, i+1, i+2, i+3, i+4))
	}
	cases := [][]string{
		nil,
		{""},
		{"", "", "ab"},
		{"ab", "ab", "ab", "cd"},
		{"9:07", "9:07 PM", "10:15", "10:15 AM", ""},
		{"a1b2", "ab12", "12ab", "a-1", "a_1", "a 1"},
		{"<x>", "(y)", `\z`, "<x>"},
		{"1.2.3.4.5.6.7.8.9.10", "1.2", "a.b"},
		{"x1", "x2", "x3", "y1", "y-1", "  y1"},
		{"2019-01-02", "2019/01/02", "2019-1-2", "20190102"},
		{"AB12CD", "ab12cd", "A1", "1A", "A", "1"},
		{"a1", "b-2", "3.c", "d_4"},            // no majority shape
		{"12", "ab", "12", "ab", "34", "cd"},   // digits and letters weigh exactly half each
		wide,                                   // the majority shape is wide under the fine pass only
		wide[1:],                               // every value is wide under the fine pass only
		late,                                   // the only qualifying shape is met late
		{"ab-1", "ab-2", "ab-3", "ab+4"},       // only the last member's symbol differs
		{"ab-1", "ab-2", "ab-3", "ac-4"},       // only the last member's letters differ
		{"ab-1", "ab-22", "ab-333", "ab-4444"}, // constant prefix, widths differ
	}
	for _, values := range cases {
		for _, opt := range agreeOptions() {
			checkAgree(t, values, opt)
		}
	}
}

// Visit meets each key once — a key fixes its class shape within a pass,
// and the fine pass skips the groups with no letter or digit run, which
// the alnum pass has searched — and hands it over with the support the
// oracle, which merges the bitsets of a key met twice, counts for it:
// over every generator domain at seeds 1–5; over symbol-only columns,
// alone and beside letter and digit values of the same run count; with
// empty values; with the alnum pass off; and with a pattern cap that ends
// the alnum pass inside a group, a symbol-only one among them.
func TestVisitMeetsEachKeyOnce(t *testing.T) {
	all := agreeOptions()
	opts := []pattern.EnumOptions{all["index"], all["leaf"], all["cut"], all["capped"], all["fineOnly"]}
	check := func(values []string, opt pattern.EnumOptions) {
		t.Helper()
		checkVisit(t, values, opt, pattern.OracleEnumerate(values, opt))
	}
	for _, d := range allDomains() {
		for seed := int64(1); seed <= 5; seed++ {
			values, err := datagen.FreshColumn(d.Name, 40, seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, opt := range opts {
				check(values, opt)
			}
		}
	}

	symbols := [][]string{
		{"--", "::", "--"},
		{" - ", " - ", " : "},
		{"--", "::", " - ", "-:"},
		{"--", "::", "a-", "1:", "--"},       // symbol-only beside letter and digit runs, two runs each
		{" - ", "a-b", "1 2", " - ", "x:y"},  // three runs each
		{"--", "", "::", "", "ab", "12"},     // empty values
		{"", "", ""},                         // nothing but empty values
		{"--", "--", "--", "-:", "a-", "b-"}, // the heaviest group is symbol-only
		{"2019-01-02", "2020-11-30", "--", "::"},
	}
	for _, values := range symbols {
		for _, opt := range opts {
			check(values, opt)
		}
	}

	// Caps that end the alnum pass inside a group: a date group, and a
	// symbol-only group searched first, whose keys the fine pass would
	// meet again.
	capped := all["index"]
	for _, values := range [][]string{
		{"2019-01-02", "2020-11-30", "2021-07-04"},
		{"--", "--", "-:", "::", "a-", "1-"},
	} {
		full := len(pattern.OracleEnumerate(values, capped).Candidates)
		for n := 1; n <= full; n++ {
			capped.MaxPatterns = n
			check(values, capped)
		}
	}
}

// FuzzEnumerateAgree feeds arbitrary newline-separated columns and
// option bytes to the oracle, Enumerate and Visit.
func FuzzEnumerateAgree(f *testing.F) {
	f.Add("9:07\n9:07 PM\n10:15", byte(100), byte(8), byte(0))
	f.Add("a1b2\nab12\n\n12ab\na1b2", byte(5), byte(3), byte(4))
	f.Add("<x>\n(y)\n\\z", byte(90), byte(0), byte(2))
	f.Add("0a1b2c3d-0a1b\nffff0000-abcd\n12345678-9abc", byte(100), byte(5), byte(1))
	// Shapes at a DP leaf's settings: no majority shape; an exact
	// half/half weighted tie; a majority shape wide under the fine pass
	// only; a majority shape met late (the only qualifying one at 90 %); a
	// position where only the last member differs.
	f.Add("a1\nb-2\n3.c\nd_4", byte(100), byte(5), byte(0))
	f.Add("12\nab\n12\nab\n34\ncd", byte(100), byte(5), byte(1))
	f.Add("a1b2c3d\ne5f6g7h\ni8j9k0l\nx-1\na1b2c3d", byte(100), byte(5), byte(0))
	f.Add("x-y\n\n1\n2\n3\n4\n5\n6\n7\n8\n9\n10", byte(100), byte(5), byte(0))
	f.Add("x-y\n1\n2\n3\n4\n5\n6\n7\n8\n9\n10", byte(90), byte(5), byte(0))
	f.Add("ab-1\nab-2\nab-3\nab+4", byte(100), byte(5), byte(0))
	f.Fuzz(func(t *testing.T, column string, support, tau, caps byte) {
		if len(column) > 400 {
			return
		}
		opt := pattern.DefaultEnumOptions()
		opt.MinSupport = float64(support%101) / 100
		// Both cross-products are exponential in τ (eight options a
		// position); the property tests cover τ = 8 and 13.
		opt.MaxTokens = 1 + int(tau%6)
		opt.IncludeAlnumPass = caps&1 == 0
		if caps&2 != 0 {
			opt.MaxPatterns = 1 + int(caps>>4)
		}
		if caps&4 != 0 {
			opt.MaxValues = 1 + int(caps>>5)
		}
		checkAgree(t, strings.Split(column, "\n"), opt)
	})
}

// checkSummaryAgree holds EnumerateSummary, fed the column's obvious
// summaries, to Enumerate at full support: the keys and tokens it visits
// are Enumerate's candidates as a set, none twice, and as many.
func checkSummaryAgree(t *testing.T, values []string, opt pattern.EnumOptions) {
	t.Helper()
	opt.MinSupport = 1
	merged, fine := pattern.Summarize(values, opt.MaxValues)
	visited := map[string][]pattern.Tok{}
	pattern.EnumerateSummary(merged, fine, opt, func(key string, toks []pattern.Tok) {
		if _, ok := visited[key]; ok {
			t.Errorf("%q (%+v): key %q visited twice", values, opt, key)
		}
		visited[key] = slices.Clone(toks)
	})
	want := pattern.Enumerate(values, opt)
	if len(visited) != len(want.Candidates) {
		t.Fatalf("%q (%+v): %d keys visited; Enumerate has %s", values, opt, len(visited), describe(want))
	}
	for _, c := range want.Candidates {
		if toks, ok := visited[c.Key]; !ok || !reflect.DeepEqual(toks, c.Pattern.Toks) {
			t.Fatalf("%q (%+v): candidate %q visited = %v with tokens %v, want %v", values, opt, c.Key, ok, toks, c.Pattern.Toks)
		}
	}
}

// EnumerateSummary visits Enumerate's full-support candidates: a pattern
// cap that binds, the fine pass alone, a position whose symbols differ,
// letter and digit constants (which only the fine pass offers), a column
// with no letter or digit run (whose summaries are equal, so the fine pass
// is skipped), one that mixes such runs with symbols (both passes
// visit), and then every generator domain and the hand cases at every
// agreement setting.
func TestEnumerateSummaryIsEnumerateAtFullSupport(t *testing.T) {
	for _, tc := range []struct {
		name   string
		values []string
		edit   func(*pattern.EnumOptions)
		equal  bool // the merged and fine summaries are equal
	}{
		{"maxPatterns", []string{"a1-b2", "a1-b2", "c33-d4", "x9-y7"}, func(o *pattern.EnumOptions) { o.MaxPatterns = 5 }, false},
		{"fineOnly", []string{"a1-b2", "c33-d4", "x9-y7"}, func(o *pattern.EnumOptions) { o.IncludeAlnumPass = false }, false},
		{"mixedSymbol", []string{"ab-1", "ab+2", "ab-3"}, func(*pattern.EnumOptions) {}, false},
		{"fineLiterals", []string{"ab-7", "ab-8", "ab-7"}, func(*pattern.EnumOptions) {}, false},
		{"equalSummaries", []string{"-- :", "-+ :"}, func(*pattern.EnumOptions) {}, true},
		{"lettersAndSymbols", []string{"ab:-", "cd:+"}, func(*pattern.EnumOptions) {}, false},
	} {
		opt := pattern.DefaultEnumOptions()
		tc.edit(&opt)
		opt.MinSupport = 1
		if want := pattern.Enumerate(tc.values, opt); len(want.Candidates) == 0 {
			t.Fatalf("%s: Enumerate found no candidates; the case is meant to have some", tc.name)
		}
		if merged, fine := pattern.Summarize(tc.values, opt.MaxValues); slices.Equal(merged, fine) != tc.equal {
			t.Fatalf("%s: summaries %v and %v, want equal %v", tc.name, merged, fine, tc.equal)
		}
		checkSummaryAgree(t, tc.values, opt)
	}
	// The letter constant ab is the fine pass's alone.
	merged, fine := pattern.Summarize([]string{"ab-7", "ab-8"}, 0)
	offersAB := func(merged, fine []pattern.Position) (found bool) {
		pattern.EnumerateSummary(merged, fine, pattern.DefaultEnumOptions(), func(key string, _ []pattern.Tok) {
			found = found || strings.HasPrefix(key, "ab-")
		})
		return found
	}
	if offersAB(merged, nil) || !offersAB(nil, fine) {
		t.Errorf("the constant ab offered by the merged pass: %v, by the fine pass: %v", offersAB(merged, nil), offersAB(nil, fine))
	}

	columns := [][]string{
		nil, {""}, {"", "ab"}, {"ab", "ab", "cd"}, {"9:07", "9:07 PM"}, {"a1b2", "ab12", "12ab"},
		{"<x>", "(y)", `\z`}, {"a0b1c2d3e4f5", "ffff0000aaaa"}, {"a-b-c-d-e-f-g-h-i", "x-y-z-a-b-c-d-e-f"},
		{"  ab", "  cd"}, {"número1-ß", "número2-ß"}, {"1", "22", "333", "4444", "55555", "666666"},
	}
	for _, d := range allDomains() {
		values, err := datagen.FreshColumn(d.Name, 40, 100)
		if err != nil {
			t.Fatal(err)
		}
		columns = append(columns, values)
	}
	for _, values := range columns {
		for _, opt := range agreeOptions() {
			checkSummaryAgree(t, values, opt)
		}
	}
}

// FuzzEnumerateSummaryAgree feeds arbitrary newline-separated columns,
// summarised the obvious way, and option bytes to EnumerateSummary and
// Enumerate at full support.
func FuzzEnumerateSummaryAgree(f *testing.F) {
	f.Add("9:07\n9:07 PM\n10:15", byte(8), byte(0))
	f.Add("a1b2\nab12\n12ab\na1b2", byte(3), byte(4))
	f.Add("ab-1\nab+2\nab-3", byte(5), byte(0))
	f.Add("ab-7\nab-7", byte(5), byte(1))
	f.Add("a1-b2\na1-b2\nc33-d4\nx9-y7", byte(5), byte(2|4<<4))
	f.Add("0a1b2c3d-0a1b\nffff0000-abcd\n12345678-9abc", byte(5), byte(4|1<<5))
	f.Fuzz(func(t *testing.T, column string, tau, caps byte) {
		if len(column) > 400 {
			return
		}
		opt := pattern.DefaultEnumOptions()
		// Enumerate's cross-product is exponential in τ.
		opt.MaxTokens = 1 + int(tau%6)
		opt.IncludeAlnumPass = caps&1 == 0
		if caps&2 != 0 {
			opt.MaxPatterns = 1 + int(caps>>4)
		}
		if caps&4 != 0 {
			opt.MaxValues = 1 + int(caps>>5)
		}
		checkSummaryAgree(t, strings.Split(column, "\n"), opt)
	})
}
