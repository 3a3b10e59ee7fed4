package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) == math.IsNaN(b)
	}
	return math.Abs(a-b) <= tol
}

func TestOnlineBasics(t *testing.T) {
	var o Online
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		o.Add(x)
	}
	if o.n != 8 {
		t.Fatalf("n = %d", o.n)
	}
	if !almost(o.Mean(), 5, 1e-12) {
		t.Fatalf("Mean = %v", o.Mean())
	}
	if !almost(o.Variance(), 4, 1e-12) {
		t.Fatalf("Variance = %v", o.Variance())
	}
	if !almost(o.Stddev(), 2, 1e-12) {
		t.Fatalf("Stddev = %v", o.Stddev())
	}
}

func TestOnlineEmptyAndSingle(t *testing.T) {
	var o Online
	if o.Mean() != 0 || o.Variance() != 0 {
		t.Fatal("zero-value accumulator should report zeros")
	}
	o.Add(3)
	if o.Variance() != 0 {
		t.Fatal("single sample has zero variance")
	}
	if o.Mean() != 3 {
		t.Fatalf("Mean = %v", o.Mean())
	}
}

// Property: Welford variance equals the naive two-pass variance.
func TestPropertyWelfordMatchesTwoPass(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) < 2 {
			return true
		}
		var o Online
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
			o.Add(xs[i])
		}
		m := Mean(xs)
		var ss float64
		for _, x := range xs {
			ss += (x - m) * (x - m)
		}
		want := ss / float64(len(xs))
		return almost(o.Variance(), want, 1e-6*(1+want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	if got := Quantiles(xs, 0.5, 0, 1, 0.25); got[0] != 35 || got[1] != 15 || got[2] != 50 || got[3] != 20 {
		t.Fatalf("median, q0, q1, q25 = %v, want 35, 15, 50, 20", got)
	}
	if !math.IsNaN(Quantiles(nil, 0.5)[0]) {
		t.Fatal("empty quantile should be NaN")
	}
	// Input must be unchanged.
	ys := []float64{3, 1, 2}
	Quantiles(ys, 0.5)
	if ys[0] != 3 || ys[1] != 1 || ys[2] != 2 {
		t.Fatal("Quantiles mutated input")
	}
}

func TestQuantilesBatch(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	got := Quantiles(xs, 0, 0.5, 1)
	if got[0] != 1 || got[2] != 10 {
		t.Fatalf("Quantiles = %v", got)
	}
	if !almost(got[1], 5.5, 1e-12) {
		t.Fatalf("median = %v", got[1])
	}
}

func TestNormalize(t *testing.T) {
	got := Normalize([]float64{10, 20, 30})
	want := []float64{0, 0.5, 1}
	for i := range want {
		if !almost(got[i], want[i], 1e-12) {
			t.Fatalf("Normalize = %v", got)
		}
	}
	constant := Normalize([]float64{5, 5, 5})
	for _, v := range constant {
		if v != 0 {
			t.Fatal("constant series should normalize to zeros")
		}
	}
	if len(Normalize(nil)) != 0 {
		t.Fatal("empty input")
	}
}

func TestNormalizeByMax(t *testing.T) {
	got := NormalizeByMax([]float64{1, 2, 4})
	if got[0] != 0.25 || got[1] != 0.5 || got[2] != 1 {
		t.Fatalf("NormalizeByMax = %v", got)
	}
	zeros := NormalizeByMax([]float64{0, 0})
	if zeros[0] != 0 || zeros[1] != 0 {
		t.Fatal("all-zero series")
	}
}

func TestFitLinearPerfectLine(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{3, 5, 7, 9, 11} // y = 2x+1
	f := FitLinear(x, y)
	if !almost(f.Slope, 2, 1e-12) || !almost(f.Intercept, 1, 1e-12) {
		t.Fatalf("fit = %+v", f)
	}
	if !almost(f.R2, 1, 1e-12) {
		t.Fatalf("R2 = %v", f.R2)
	}
	res := f.Residuals(x, y)
	for _, r := range res {
		if !almost(r, 0, 1e-9) {
			t.Fatalf("residuals = %v", res)
		}
	}
}

func TestFitLinearNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var x, y []float64
	for i := 0; i < 500; i++ {
		xi := float64(i)
		x = append(x, xi)
		y = append(y, 3*xi+40+rng.NormFloat64()*5)
	}
	f := FitLinear(x, y)
	if !almost(f.Slope, 3, 0.05) {
		t.Fatalf("slope = %v", f.Slope)
	}
	if f.R2 < 0.99 {
		t.Fatalf("R2 = %v, want > 0.99 for tight line", f.R2)
	}
}

func TestFitLinearDegenerate(t *testing.T) {
	f := FitLinear([]float64{1}, []float64{2})
	if f.Slope != 0 || f.N != 1 {
		t.Fatalf("single point fit = %+v", f)
	}
	f = FitLinear([]float64{2, 2, 2}, []float64{1, 5, 9})
	if f.Slope != 0 || !almost(f.Intercept, 5, 1e-12) {
		t.Fatalf("vertical data fit = %+v", f)
	}
	f = FitLinear([]float64{1, 2, 3}, []float64{4, 4, 4})
	if f.R2 != 1 || f.Slope != 0 {
		t.Fatalf("horizontal data fit = %+v", f)
	}
}

func TestFitLinearMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch should panic")
		}
	}()
	FitLinear([]float64{1}, []float64{1, 2})
}

// Property: R2 is always within [0,1] and invariant to affine rescaling
// of x.
func TestPropertyR2Bounds(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) < 3 {
			return true
		}
		x := make([]float64, len(raw))
		y := make([]float64, len(raw))
		for i, r := range raw {
			x[i] = float64(i)
			y[i] = float64(r)
		}
		f1 := FitLinear(x, y)
		if f1.R2 < -1e-9 || f1.R2 > 1+1e-9 {
			return false
		}
		x2 := make([]float64, len(x))
		for i := range x {
			x2[i] = 7*x[i] - 3
		}
		f2 := FitLinear(x2, y)
		return almost(f1.R2, f2.R2, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
