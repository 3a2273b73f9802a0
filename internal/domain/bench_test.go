package domain

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// benchColumn is the column size of BenchmarkValidate: one
// check_large batch.
const benchColumn = 20_000

// benchValues generates a column of valid values for the named domain.
// Checksum domains get their check characters by trying each candidate
// against the oracle.
func benchValues(name string) []string {
	rng := rand.New(rand.NewSource(1))
	digits := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('0' + rng.Intn(10))
		}
		return string(b)
	}
	// withCheck completes head+?+tail with the first check string that
	// validates.
	withCheck := func(head, tail string, checks ...string) string {
		for _, check := range checks {
			if s := head + check + tail; oracles[name].Validate(s) == nil {
				return s
			}
		}
		panic("no check string validates " + head + "?" + tail)
	}
	digitChecks := strings.Split("0123456789", "")
	out := make([]string, benchColumn)
	for i := range out {
		switch name {
		case "date":
			out[i] = fmt.Sprintf("%04d-%02d-%02d", 1990+rng.Intn(40), 1+rng.Intn(12), 1+rng.Intn(28))
		case "ipv4":
			out[i] = fmt.Sprintf("%d.%d.%d.%d", rng.Intn(256), rng.Intn(256), rng.Intn(256), rng.Intn(256))
		case "ipv6":
			out[i] = fmt.Sprintf("2001:db8:%x:%x::%x", rng.Intn(1<<16), rng.Intn(1<<16), rng.Intn(1<<16))
		case "uuid":
			out[i] = fmt.Sprintf("%08x-%04x-4%03x-%x%03x-%012x", rng.Uint32(), rng.Intn(1<<16),
				rng.Intn(1<<12), 8+rng.Intn(4), rng.Intn(1<<12), rng.Int63n(1<<48))
		case "email":
			out[i] = fmt.Sprintf("user.%d@mail%d.example.com", rng.Intn(1e6), rng.Intn(50))
		case "url":
			out[i] = fmt.Sprintf("https://host%d.example.org/path/%d?q=%d", rng.Intn(50), i, rng.Intn(1e4))
		case "isbn10":
			out[i] = withCheck(digits(9), "", append(digitChecks, "X")...)
		case "isbn13":
			out[i] = withCheck("978"+digits(9), "", digitChecks...)
		case "luhn":
			out[i] = withCheck("4"+digits(14), "", digitChecks...)
		case "iban":
			var checks []string
			for _, d := range digitChecks {
				for _, e := range digitChecks {
					checks = append(checks, d+e)
				}
			}
			out[i] = withCheck("GB", "WEST"+digits(14), checks...)
		case "doi":
			out[i] = fmt.Sprintf("10.%d/journal.%d", 1000+rng.Intn(9000), rng.Intn(1e6))
		case "arxiv":
			out[i] = fmt.Sprintf("%02d%02d.%05d", 15+rng.Intn(10), 1+rng.Intn(12), rng.Intn(100000))
		case VocabularyName:
			out[i] = fmt.Sprintf("status-%d", rng.Intn(20))
		default:
			panic("no generator for " + name)
		}
	}
	return out
}

// BenchmarkValidate times each built-in, and a vocabulary, over a
// generated 20 000-value column: the string oracle it replaced against
// the byte validator. One op is the whole column; ns/value is the
// per-value cost.
//
//	go test -run '^$' -bench BenchmarkValidate -cpu 1 ./internal/domain
func BenchmarkValidate(b *testing.B) {
	vocabWords := make([]string, 20)
	vocabOracle := oracleVocab{}
	for i := range vocabWords {
		vocabWords[i] = fmt.Sprintf("status-%d", i)
		vocabOracle[vocabWords[i]] = struct{}{}
	}
	names := []string{"date", "ipv4", "ipv6", "uuid", "email", "url", "isbn10", "isbn13", "iban", "luhn", "doi", "arxiv", VocabularyName}
	for _, name := range names {
		b.Run(name, func(b *testing.B) {
			v, ok := Lookup(name)
			var o oracle = oracles[name]
			if name == VocabularyName {
				v, o, ok = NewVocabulary(vocabWords), vocabOracle, true
			}
			if !ok {
				b.Fatalf("no validator %q", name)
			}
			strs := benchValues(name)
			views := make([][]byte, len(strs))
			for i, s := range strs {
				views[i] = []byte(s)
			}
			perValue := func(b *testing.B) {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(strs)), "ns/value")
			}
			b.Run("oracle", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for _, s := range strs {
						if o.Validate(s) != nil {
							b.Fatalf("oracle rejects generated %q", s)
						}
					}
				}
				perValue(b)
			})
			b.Run("bytes", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for _, s := range views {
						if v.Validate(s) != nil {
							b.Fatalf("validator rejects generated %q", s)
						}
					}
				}
				perValue(b)
			})
		})
	}
}
