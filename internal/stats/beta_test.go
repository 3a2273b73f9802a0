package stats

import (
	"math"
	"testing"
)

func TestIncBetaKnownValues(t *testing.T) {
	// I_x(1, 1) = x (uniform CDF).
	for _, x := range []float64{0.1, 0.5, 0.9} {
		if got := IncBeta(1, 1, x); !near(got, x, 1e-12) {
			t.Errorf("IncBeta(1,1,%v) = %v, want %v", x, got, x)
		}
	}
	// I_x(1, b) = 1 - (1-x)^b.
	for _, x := range []float64{0.2, 0.7} {
		want := 1 - math.Pow(1-x, 3)
		if got := IncBeta(1, 3, x); !near(got, want, 1e-10) {
			t.Errorf("IncBeta(1,3,%v) = %v, want %v", x, got, want)
		}
	}
	// Boundaries.
	if IncBeta(2, 2, 0) != 0 || IncBeta(2, 2, 1) != 1 {
		t.Error("boundary values wrong")
	}
	// Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a).
	if s := IncBeta(2.5, 4, 0.3) + IncBeta(4, 2.5, 0.7); !near(s, 1, 1e-10) {
		t.Errorf("symmetry violated: %v", s)
	}
}
