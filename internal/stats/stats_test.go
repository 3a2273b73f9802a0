package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func near(got, want, tol float64) bool { return math.Abs(got-want) <= tol }

func TestFisherExactTeaTasting(t *testing.T) {
	// Fisher's lady-tasting-tea table [3 1; 1 3]: two-tailed p ≈ 0.4857.
	p, err := FisherExact(3, 1, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !near(p, 0.4857, 1e-3) {
		t.Errorf("FisherExact(3,1,1,3) = %v, want ≈0.4857", p)
	}
}

func TestFisherExactKnownValues(t *testing.T) {
	tests := []struct {
		a, b, c, d int
		want, tol  float64
	}{
		{1, 9, 11, 3, 0.002759, 1e-4}, // classic Wikipedia example, two-tailed
		{5, 0, 1, 4, 0.047619, 1e-4},
		{0, 10, 0, 10, 1, 0},           // no signal
		{10, 0, 0, 10, 1.083e-5, 1e-7}, // perfect separation
	}
	for _, tc := range tests {
		p, err := FisherExact(tc.a, tc.b, tc.c, tc.d)
		if err != nil {
			t.Fatal(err)
		}
		if !near(p, tc.want, tc.tol) {
			t.Errorf("FisherExact(%d,%d,%d,%d) = %v, want ≈%v", tc.a, tc.b, tc.c, tc.d, p, tc.want)
		}
	}
}

func TestFisherExactSymmetry(t *testing.T) {
	// Swapping rows or columns must not change the p-value.
	p1, _ := FisherExact(2, 8, 7, 3)
	p2, _ := FisherExact(7, 3, 2, 8)
	p3, _ := FisherExact(8, 2, 3, 7)
	if !near(p1, p2, 1e-12) || !near(p1, p3, 1e-12) {
		t.Errorf("Fisher p-values not symmetric: %v %v %v", p1, p2, p3)
	}
}

func TestFisherExactErrors(t *testing.T) {
	if _, err := FisherExact(-1, 0, 0, 0); err == nil {
		t.Error("negative cell should error")
	}
	if p, err := FisherExact(0, 0, 0, 0); err != nil || p != 1 {
		t.Errorf("empty table should be p=1, got %v, %v", p, err)
	}
}

func TestChiSquaredYatesKnown(t *testing.T) {
	// For the table [15 85; 45 55]: N=200, |ad-bc|=3000, so
	// chi2_yates = 200*(3000-100)^2 / (100*100*60*140) ≈ 20.024.
	stat, p, err := ChiSquaredYates(15, 85, 45, 55)
	if err != nil {
		t.Fatal(err)
	}
	if !near(stat, 20.024, 0.01) {
		t.Errorf("stat = %v, want ≈20.024", stat)
	}
	if p > 1e-4 || p < 1e-7 {
		t.Errorf("p = %v, want ≈1e-5", p)
	}
}

func TestChiSquaredDegenerateMargins(t *testing.T) {
	if _, p, err := ChiSquaredYates(0, 0, 5, 5); err != nil || p != 1 {
		t.Errorf("degenerate margin should give p=1, got %v %v", p, err)
	}
}

func TestChiSquareSurvivalCriticalValues(t *testing.T) {
	// Standard critical values at alpha = 0.05.
	tests := []struct {
		x  float64
		df int
	}{
		{3.841, 1}, {5.991, 2}, {7.815, 3}, {9.488, 4},
	}
	for _, tc := range tests {
		p := ChiSquareSurvival(tc.x, tc.df)
		if !near(p, 0.05, 2e-4) {
			t.Errorf("ChiSquareSurvival(%v, %d) = %v, want ≈0.05", tc.x, tc.df, p)
		}
	}
	if p := ChiSquareSurvival(0, 1); p != 1 {
		t.Errorf("survival at 0 should be 1, got %v", p)
	}
}

func TestGammaPQComplementary(t *testing.T) {
	for _, a := range []float64{0.5, 1, 2.5, 10} {
		for _, x := range []float64{0.1, 1, 5, 20} {
			if s := GammaP(a, x) + GammaQ(a, x); !near(s, 1, 1e-10) {
				t.Errorf("GammaP+GammaQ(%v,%v) = %v, want 1", a, x, s)
			}
		}
	}
}

func TestGammaPKnownValues(t *testing.T) {
	// P(1, x) = 1 - exp(-x).
	for _, x := range []float64{0.5, 1, 2, 5} {
		want := 1 - math.Exp(-x)
		if got := GammaP(1, x); !near(got, want, 1e-10) {
			t.Errorf("GammaP(1,%v) = %v, want %v", x, got, want)
		}
	}
	// P(0.5, x) = erf(sqrt(x)).
	for _, x := range []float64{0.25, 1, 4} {
		want := math.Erf(math.Sqrt(x))
		if got := GammaP(0.5, x); !near(got, want, 1e-10) {
			t.Errorf("GammaP(0.5,%v) = %v, want %v", x, got, want)
		}
	}
}

func TestHypergeomPMFSumsToOne(t *testing.T) {
	pop, succ, sample := 30, 12, 10
	sum := 0.0
	for k := 0; k <= sample; k++ {
		lp := HypergeomLogPMF(k, pop, succ, sample)
		if !math.IsInf(lp, -1) {
			sum += math.Exp(lp)
		}
	}
	if !near(sum, 1, 1e-10) {
		t.Errorf("hypergeometric pmf sums to %v, want 1", sum)
	}
}

func TestHomogeneityPValueDriftScenario(t *testing.T) {
	// The paper's motivating example: θ_C = 0.1% on 1000 training values
	// vs θ_C' = 0.11% on ~9000 test values should NOT alarm, while 5%
	// non-conforming should.
	for _, test := range []TwoSampleTest{Fisher, ChiSquared} {
		pSame, err := HomogeneityPValue(test, 1, 1000, 10, 9000)
		if err != nil {
			t.Fatal(err)
		}
		if pSame < 0.01 {
			t.Errorf("%v: near-identical ratios should not reject H0, p=%v", test, pSame)
		}
		pDrift, err := HomogeneityPValue(test, 1, 1000, 450, 9000)
		if err != nil {
			t.Fatal(err)
		}
		if pDrift >= 0.01 {
			t.Errorf("%v: 0.1%% vs 5%% non-conforming should reject H0, p=%v", test, pDrift)
		}
	}
}

func TestHomogeneityTotalMismatch(t *testing.T) {
	// 100% non-conforming test data (the schema-drift case) must be
	// detected even with moderate sample sizes.
	p, err := HomogeneityPValue(Fisher, 0, 100, 50, 50)
	if err != nil {
		t.Fatal(err)
	}
	if p >= 1e-6 {
		t.Errorf("complete mismatch p = %v, want tiny", p)
	}
}

// Property: p-values are always in [0, 1], and Fisher and chi-squared
// broadly agree on significance for moderately sized tables.
func TestPValueRangeProperty(t *testing.T) {
	f := func(a, b, c, d uint8) bool {
		pf, err1 := FisherExact(int(a), int(b), int(c), int(d))
		_, pc, err2 := ChiSquaredYates(int(a), int(b), int(c), int(d))
		if err1 != nil || err2 != nil {
			return false
		}
		return pf >= 0 && pf <= 1 && pc >= 0 && pc <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: increasing the imbalance of the second sample monotonically
// (weakly) decreases the Fisher p-value.
func TestFisherMonotoneInDriftProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n1, n2 := 50+rng.Intn(200), 50+rng.Intn(200)
		bad1 := rng.Intn(n1 / 10)
		prev := 2.0
		worse := 0
		for bad2 := bad1 * n2 / n1; bad2 <= n2; bad2 += n2 / 8 {
			p, err := HomogeneityPValue(Fisher, bad1, n1, bad2, n2)
			if err != nil {
				t.Fatal(err)
			}
			if p > prev+1e-9 {
				worse++
			}
			prev = p
		}
		if worse > 1 { // allow one discreteness wiggle
			t.Errorf("trial %d: p-value increased %d times along drift axis", trial, worse)
		}
	}
}

func BenchmarkFisherExact(b *testing.B) {
	for i := 0; i < b.N; i++ {
		FisherExact(10, 990, 480, 8520) //nolint:errcheck
	}
}

func BenchmarkChiSquaredYates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ChiSquaredYates(10, 990, 480, 8520) //nolint:errcheck
	}
}

// GammaP returns the regularized lower incomplete gamma function P(a, x).
func GammaP(a, x float64) float64 {
	if x < 0 || a <= 0 {
		return math.NaN()
	}
	if x == 0 {
		return 0
	}
	if x < a+1 {
		return gammaSeries(a, x)
	}
	return 1 - gammaCF(a, x)
}
