package ml

import (
	"math"
	"math/rand"
	"testing"
)

func TestTrainRegressionLearnsLinearSignal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 800
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		a, b := rng.Float64()*4, rng.Float64()*4
		X[i] = []float64{a, b, rng.NormFloat64()}
		y[i] = 2*a - b + 0.05*rng.NormFloat64()
	}
	m := Train(X[:600], y[:600], DefaultConfig(Regression))
	pred := m.PredictAll(X[600:])
	if r2 := R2(pred, y[600:]); r2 < 0.9 {
		t.Errorf("R2 = %v, want > 0.9 on a nearly noiseless linear task", r2)
	}
}

func TestTrainClassificationSeparable(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 800
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		a := rng.NormFloat64()
		X[i] = []float64{a, rng.NormFloat64()}
		if a > 0 {
			y[i] = 1
		}
	}
	m := Train(X[:600], y[:600], DefaultConfig(Classification))
	pred := m.PredictAll(X[600:])
	if acc := Accuracy(pred, y[600:]); acc < 0.95 {
		t.Errorf("accuracy = %v, want > 0.95 on a separable task", acc)
	}
	for _, p := range pred {
		if p < 0 || p > 1 {
			t.Fatalf("classification output %v outside [0,1]", p)
		}
	}
}

func TestTrainNonLinearInteraction(t *testing.T) {
	// Trees should capture an XOR-ish interaction a linear model cannot.
	rng := rand.New(rand.NewSource(3))
	n := 1200
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		a, b := rng.NormFloat64(), rng.NormFloat64()
		X[i] = []float64{a, b}
		if (a > 0) != (b > 0) {
			y[i] = 1
		}
	}
	cfg := DefaultConfig(Classification)
	cfg.Trees = 120
	cfg.Depth = 4
	m := Train(X[:900], y[:900], cfg)
	if acc := Accuracy(m.PredictAll(X[900:]), y[900:]); acc < 0.85 {
		t.Errorf("accuracy = %v, want > 0.85 on XOR", acc)
	}
}

func TestR2(t *testing.T) {
	y := []float64{1, 2, 3, 4}
	if r2 := R2(y, y); math.Abs(r2-1) > 1e-12 {
		t.Errorf("perfect predictions should give R2=1, got %v", r2)
	}
	mean := []float64{2.5, 2.5, 2.5, 2.5}
	if r2 := R2(mean, y); math.Abs(r2) > 1e-12 {
		t.Errorf("mean predictor should give R2=0, got %v", r2)
	}
	if r2 := R2([]float64{4, 3, 2, 1}, y); r2 >= 0 {
		t.Errorf("anti-correlated predictor should give negative R2, got %v", r2)
	}
	if R2(nil, nil) != 0 {
		t.Error("empty input should give 0")
	}
}

func TestAveragePrecision(t *testing.T) {
	// Perfect ranking.
	score := []float64{0.9, 0.8, 0.2, 0.1}
	y := []float64{1, 1, 0, 0}
	if ap := AveragePrecision(score, y); math.Abs(ap-1) > 1e-12 {
		t.Errorf("perfect ranking AP = %v, want 1", ap)
	}
	// Worst ranking: positives at ranks 3,4 -> AP = (1/3 + 2/4)/2.
	score = []float64{0.9, 0.8, 0.2, 0.1}
	y = []float64{0, 0, 1, 1}
	want := (1.0/3 + 2.0/4) / 2
	if ap := AveragePrecision(score, y); math.Abs(ap-want) > 1e-12 {
		t.Errorf("worst ranking AP = %v, want %v", ap, want)
	}
	if AveragePrecision(nil, nil) != 0 {
		t.Error("empty input should give 0")
	}
	if AveragePrecision([]float64{0.5}, []float64{0}) != 0 {
		t.Error("no positives should give 0")
	}
}

func TestAccuracy(t *testing.T) {
	if acc := Accuracy([]float64{0.9, 0.1}, []float64{1, 0}); acc != 1 {
		t.Errorf("accuracy = %v, want 1", acc)
	}
	if acc := Accuracy([]float64{0.9, 0.1}, []float64{0, 1}); acc != 0 {
		t.Errorf("accuracy = %v, want 0", acc)
	}
}

func TestDepthZeroIsConstantModel(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}}
	y := []float64{1, 2, 3}
	cfg := DefaultConfig(Regression)
	cfg.Depth = 0
	m := Train(X, y, cfg)
	p := m.PredictAll(X)
	for i := 1; i < len(p); i++ {
		if math.Abs(p[i]-p[0]) > 1e-9 {
			t.Fatalf("depth-0 model should be constant, got %v", p)
		}
	}
}

func TestQuicksortBy(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(100)
		vals := make([]float64, n)
		idx := make([]int, n)
		for i := range vals {
			vals[i] = rng.Float64()
			idx[i] = i
		}
		quicksortBy(idx, func(i int) float64 { return vals[i] })
		for i := 1; i < n; i++ {
			if vals[idx[i]] < vals[idx[i-1]] {
				t.Fatalf("not sorted at %d", i)
			}
		}
	}
}

// Accuracy returns the 0.5-threshold accuracy for binary classification.
func Accuracy(score, y []float64) float64 {
	if len(y) == 0 {
		return 0
	}
	correct := 0
	for i := range y {
		pred := 0.0
		if score[i] >= 0.5 {
			pred = 1
		}
		if (pred >= 0.5) == (y[i] >= 0.5) {
			correct++
		}
	}
	return float64(correct) / float64(len(y))
}
