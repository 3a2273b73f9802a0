package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// percentile returns the p-th percentile (0..100) of sorted by linear
// interpolation between closest ranks; 0 for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return sorted[lo] + (rank-float64(lo))*(sorted[hi]-sorted[lo])
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

// tailLadder are the percentiles a tail may be reported at.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9, 99.99}

// tailPercentile returns the highest percentile of the ladder that
// still has at least ten of n samples beyond it, or 0 when even the
// median has not.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= 10-1e-9 { // 100-99.9 is not quite 0.1
			best = p
		}
	}
	return best
}

// quartileSpread is the distance between the first and third quartile
// as a share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives (the exclusive method), so
// that -aa judges a metric as the driver will.
func quartileSpread(xs []float64) float64 {
	s := sortedCopy(xs)
	med := percentile(s, 50)
	if len(s) < 2 || med == 0 {
		return 0
	}
	q := func(k int) float64 {
		pos := float64(k*(len(s)+1))/4 - 1
		lo := int(math.Floor(pos))
		switch {
		case lo < 0:
			return s[0]
		case lo >= len(s)-1:
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return (q(3) - q(1)) / math.Abs(med)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("reading peak RSS: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("reading peak RSS: no VmHWM in /proc/self/status")
}
