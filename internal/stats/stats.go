// Package stats provides the statistical machinery Auto-Validate uses for
// its distributional test of non-conforming values (paper §4): Fisher's
// exact test and Pearson's chi-squared test with Yates correction, both
// two-sample homogeneity tests over 2x2 contingency tables, plus the
// special functions (log-gamma, regularized incomplete gamma) they need.
package stats

import (
	"errors"
	"math"
)

// ErrInvalidTable is returned for contingency tables with negative cells
// or an empty margin.
var ErrInvalidTable = errors.New("stats: invalid contingency table")

// lchoose returns log C(n, k).
func lchoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	a, _ := math.Lgamma(float64(n + 1))
	b, _ := math.Lgamma(float64(k + 1))
	c, _ := math.Lgamma(float64(n - k + 1))
	return a - b - c
}

// HypergeomLogPMF returns the log-probability of drawing k successes in a
// sample of size sample from a population of size pop containing succ
// successes.
func HypergeomLogPMF(k, pop, succ, sample int) float64 {
	return lchoose(succ, k) + lchoose(pop-succ, sample-k) - lchoose(pop, sample)
}

// FisherExact computes the two-tailed p-value of Fisher's exact test for
// the 2x2 table
//
//	a b
//	c d
//
// using the standard "sum of all tables at most as probable as the
// observed one" definition. This is the test the paper applies with a
// significance level of 0.01 (§5.2).
func FisherExact(a, b, c, d int) (float64, error) {
	if a < 0 || b < 0 || c < 0 || d < 0 {
		return 0, ErrInvalidTable
	}
	n := a + b + c + d
	if n == 0 {
		return 1, nil
	}
	r1 := a + b
	c1 := a + c
	// The support of the hypergeometric distribution for cell a.
	lo := 0
	if c1-(n-r1) > 0 {
		lo = c1 - (n - r1)
	}
	hi := r1
	if c1 < hi {
		hi = c1
	}
	obs := HypergeomLogPMF(a, n, r1, c1)
	const slack = 1e-7 // tolerate float noise when comparing probabilities
	p := 0.0
	for k := lo; k <= hi; k++ {
		lp := HypergeomLogPMF(k, n, r1, c1)
		if lp <= obs+slack {
			p += math.Exp(lp)
		}
	}
	if p > 1 {
		p = 1
	}
	return p, nil
}

// ChiSquaredYates computes Pearson's chi-squared statistic with Yates
// continuity correction for the 2x2 table, and its p-value (df = 1).
func ChiSquaredYates(a, b, c, d int) (stat, p float64, err error) {
	if a < 0 || b < 0 || c < 0 || d < 0 {
		return 0, 0, ErrInvalidTable
	}
	n := float64(a + b + c + d)
	r1, r2 := float64(a+b), float64(c+d)
	c1, c2 := float64(a+c), float64(b+d)
	if r1 == 0 || r2 == 0 || c1 == 0 || c2 == 0 {
		// A degenerate margin carries no evidence of heterogeneity.
		return 0, 1, nil
	}
	diff := math.Abs(float64(a)*float64(d) - float64(b)*float64(c))
	corr := diff - n/2
	if corr < 0 {
		corr = 0
	}
	stat = n * corr * corr / (r1 * r2 * c1 * c2)
	return stat, ChiSquareSurvival(stat, 1), nil
}

// ChiSquareSurvival returns P(X >= x) for a chi-squared variable with df
// degrees of freedom.
func ChiSquareSurvival(x float64, df int) float64 {
	if x <= 0 {
		return 1
	}
	return GammaQ(float64(df)/2, x/2)
}

// GammaQ returns the regularized upper incomplete gamma function
// Q(a, x) = 1 - P(a, x).
func GammaQ(a, x float64) float64 {
	if x < 0 || a <= 0 {
		return math.NaN()
	}
	if x == 0 {
		return 1
	}
	if x < a+1 {
		return 1 - gammaSeries(a, x)
	}
	return gammaCF(a, x)
}

const (
	gammaEps     = 3e-14
	gammaMaxIter = 500
)

// gammaSeries evaluates P(a, x) by its power series (x < a+1).
func gammaSeries(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1.0 / a
	del := sum
	for i := 0; i < gammaMaxIter; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*gammaEps {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

// gammaCF evaluates Q(a, x) by its continued fraction (x >= a+1),
// using the modified Lentz method.
func gammaCF(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	const tiny = 1e-300
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i <= gammaMaxIter; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < gammaEps {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h
}

// TwoSampleTest names a two-sample homogeneity test.
type TwoSampleTest uint8

// Supported tests (paper §4: both perform comparably).
const (
	Fisher TwoSampleTest = iota
	ChiSquared
)

// String names the test.
func (t TwoSampleTest) String() string {
	if t == ChiSquared {
		return "chi-squared(Yates)"
	}
	return "fisher-exact"
}

// HomogeneityPValue tests whether two binomial samples — (bad1 of n1) and
// (bad2 of n2) non-conforming values — are drawn from the same
// distribution, returning the p-value under the chosen test. This is the
// §4 distributional test applied to θ_C(h) vs θ_C'(h).
func HomogeneityPValue(test TwoSampleTest, bad1, n1, bad2, n2 int) (float64, error) {
	if bad1 < 0 || bad2 < 0 || bad1 > n1 || bad2 > n2 {
		return 0, ErrInvalidTable
	}
	a, b := bad1, n1-bad1
	c, d := bad2, n2-bad2
	if test == ChiSquared {
		_, p, err := ChiSquaredYates(a, b, c, d)
		return p, err
	}
	return FisherExact(a, b, c, d)
}
