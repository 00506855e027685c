package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestLogisticKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{math.Log(3), 0.75},
		{-math.Log(3), 0.25},
		{1000, 1},
		{-1000, 0},
	}
	for _, c := range cases {
		if got := Logistic(c.x); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Logistic(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestLogisticMonotone(t *testing.T) {
	prev := Logistic(-50)
	for x := -49.0; x <= 50; x += 0.5 {
		cur := Logistic(x)
		if cur < prev {
			t.Fatalf("Logistic not monotone at x=%v: %v < %v", x, cur, prev)
		}
		prev = cur
	}
}

func TestLogitLogisticRoundTrip(t *testing.T) {
	f := func(x float64) bool {
		x = math.Mod(x, 20) // keep logits in a safe range
		p := Logistic(x)
		return almostEqual(Logit(p), x, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLogitClamps(t *testing.T) {
	if v := Logit(0); math.IsInf(v, 0) || math.IsNaN(v) {
		t.Errorf("Logit(0) should be finite, got %v", v)
	}
	if v := Logit(1); math.IsInf(v, 0) || math.IsNaN(v) {
		t.Errorf("Logit(1) should be finite, got %v", v)
	}
	if Logit(0.9) <= 0 || Logit(0.1) >= 0 {
		t.Error("Logit sign wrong")
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("Clamp basic behaviour wrong")
	}
}

func TestLogFalseValues(t *testing.T) {
	for k, want := range map[int]float64{-1: 0, 0: 0, 1: 0, 2: 0, 3: math.Log(2), 16: math.Log(15), 63: math.Log(62), 64: math.Log(63), 1000: math.Log(999)} {
		if got := LogFalseValues(k); got != want {
			t.Errorf("LogFalseValues(%d) = %v, want %v", k, got, want)
		}
	}
	// At A = 1/k the vote carries no evidence: ln(n·A/(1−A)) = 0.
	for _, k := range []int{3, 4, 16} {
		if got := Logit(1/float64(k)) + LogFalseValues(k); !almostEqual(got, 0, 1e-12) {
			t.Errorf("k=%d: weight at A=1/k = %v, want 0", k, got)
		}
	}
}

func TestLogSumExp(t *testing.T) {
	if !math.IsInf(LogSumExp(nil), -1) {
		t.Error("LogSumExp(nil) should be -Inf")
	}
	got := LogSumExp([]float64{math.Log(1), math.Log(2), math.Log(3)})
	if !almostEqual(got, math.Log(6), 1e-12) {
		t.Errorf("LogSumExp = %v, want log 6", got)
	}
	// Stability: huge values must not overflow.
	got = LogSumExp([]float64{1000, 1000})
	if !almostEqual(got, 1000+math.Log(2), 1e-9) {
		t.Errorf("LogSumExp stability failed: %v", got)
	}
	// All -Inf stays -Inf.
	if !math.IsInf(LogSumExp([]float64{math.Inf(-1), math.Inf(-1)}), -1) {
		t.Error("LogSumExp of -Infs should be -Inf")
	}
}

func TestLogSumExpShiftInvariance(t *testing.T) {
	f := func(a, b, c, shift float64) bool {
		a, b, c = math.Mod(a, 50), math.Mod(b, 50), math.Mod(c, 50)
		shift = math.Mod(shift, 100)
		x := LogSumExp([]float64{a, b, c})
		y := LogSumExp([]float64{a + shift, b + shift, c + shift})
		return almostEqual(y-x, shift, 1e-8)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSoftmaxSumsToOne(t *testing.T) {
	f := func(a, b, c float64) bool {
		a, b, c = math.Mod(a, 100), math.Mod(b, 100), math.Mod(c, 100)
		p := Softmax([]float64{a, b, c}, nil)
		var s float64
		for _, v := range p {
			if v < 0 {
				return false
			}
			s += v
		}
		return almostEqual(s, 1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSoftmaxReusesBuffer(t *testing.T) {
	buf := make([]float64, 8)
	out := Softmax([]float64{1, 2, 3}, buf)
	if len(out) != 3 {
		t.Fatalf("len(out)=%d, want 3", len(out))
	}
	if &out[0] != &buf[0] {
		t.Error("Softmax should reuse provided buffer")
	}
}

func TestEntropy2(t *testing.T) {
	if Entropy2(0.5) != 1 {
		t.Errorf("H(0.5) = %v, want 1", Entropy2(0.5))
	}
	if Entropy2(0) != 0 || Entropy2(1) != 0 {
		t.Error("H(0), H(1) should be 0")
	}
	// Symmetric.
	if !almostEqual(Entropy2(0.3), Entropy2(0.7), 1e-12) {
		t.Error("Entropy2 should be symmetric")
	}
	// Paper Example 8: pe = 0.8497 gives H ~= 0.611.
	if h := Entropy2(0.8497); !almostEqual(h, 0.611, 1e-3) {
		t.Errorf("Entropy2(0.8497) = %v, want ~0.611 (paper Example 8)", h)
	}
}

func TestKLBernoulli(t *testing.T) {
	if got := KLBernoulli(0.5, 0.5); !almostEqual(got, 0, 1e-12) {
		t.Errorf("KL(p||p) = %v, want 0", got)
	}
	if KLBernoulli(0.9, 0.1) <= 0 {
		t.Error("KL should be positive for p != q")
	}
	// Finite at the boundaries thanks to clamping.
	if v := KLBernoulli(1, 0.5); math.IsInf(v, 0) || math.IsNaN(v) {
		t.Errorf("KL(1||0.5) = %v, want finite", v)
	}
	if v := KLBernoulli(0.5, 1); math.IsInf(v, 0) || math.IsNaN(v) {
		t.Errorf("KL(0.5||1) = %v, want finite (clamped)", v)
	}
}

func TestKLBernoulliNonNegative(t *testing.T) {
	f := func(p, q float64) bool {
		p = math.Abs(math.Mod(p, 1))
		q = math.Abs(math.Mod(q, 1))
		return KLBernoulli(p, q) >= -1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLogBinomCoeff(t *testing.T) {
	if got := LogBinomCoeff(10, 5); !almostEqual(math.Exp(got), 252, 1e-6) {
		t.Errorf("C(10,5) = %v, want 252", math.Exp(got))
	}
	if !math.IsInf(LogBinomCoeff(5, 6), -1) || !math.IsInf(LogBinomCoeff(5, -1), -1) {
		t.Error("out-of-range LogBinomCoeff should be -Inf")
	}
}

func TestBinomPMFSumsToOne(t *testing.T) {
	for _, p := range []float64{0.1, 0.5, 0.7, 0.99} {
		var s float64
		for k := 0; k <= 20; k++ {
			s += BinomPMF(20, k, p)
		}
		if !almostEqual(s, 1, 1e-9) {
			t.Errorf("PMF(p=%v) sums to %v", p, s)
		}
	}
}

func TestBinomPMFEdges(t *testing.T) {
	if BinomPMF(10, 0, 0) != 1 || BinomPMF(10, 1, 0) != 0 {
		t.Error("PMF at p=0 wrong")
	}
	if BinomPMF(10, 10, 1) != 1 || BinomPMF(10, 9, 1) != 0 {
		t.Error("PMF at p=1 wrong")
	}
	if BinomPMF(10, -1, 0.5) != 0 || BinomPMF(10, 11, 0.5) != 0 {
		t.Error("PMF out of range should be 0")
	}
}

func TestBinomCDFPaperExample8(t *testing.T) {
	// pe = 1 - CDF(5; 10, 0.7) = 0.8497 per the paper's Example 8.
	pe := 1 - BinomCDF(10, 5, 0.7)
	if !almostEqual(pe, 0.8497, 1e-4) {
		t.Errorf("pe = %v, want 0.8497 (paper Example 8)", pe)
	}
}

func TestBinomCDFMonotone(t *testing.T) {
	prev := 0.0
	for k := 0; k <= 30; k++ {
		c := BinomCDF(30, k, 0.37)
		if c+1e-12 < prev {
			t.Fatalf("CDF not monotone at k=%d", k)
		}
		prev = c
	}
	if !almostEqual(prev, 1, 1e-9) {
		t.Errorf("CDF(n) = %v, want 1", prev)
	}
}

func TestBinomTailAbove(t *testing.T) {
	for _, k := range []int{-1, 0, 3, 10, 15, 19, 20, 25} {
		got := BinomTailAbove(20, k, 0.6)
		var want float64
		if k < 0 {
			want = 1
		} else {
			want = 1 - BinomCDF(20, k, 0.6)
		}
		if !almostEqual(got, want, 1e-9) {
			t.Errorf("TailAbove(20,%d) = %v, want %v", k, got, want)
		}
	}
}

func TestNormalQuantile(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959964},
		{0.025, -1.959964},
		{0.841344746, 1.0},
		{0.999, 3.090232},
	}
	for _, c := range cases {
		if got := NormalQuantile(c.p); !almostEqual(got, c.want, 1e-4) {
			t.Errorf("NormalQuantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsInf(NormalQuantile(0), -1) || !math.IsInf(NormalQuantile(1), 1) {
		t.Error("NormalQuantile boundary behaviour wrong")
	}
}

func TestChiSquareQuantile(t *testing.T) {
	// Reference values from standard tables.
	cases := []struct {
		p    float64
		k    int
		want float64
		tol  float64
	}{
		{0.95, 10, 18.307, 0.15},
		{0.95, 1, 3.841, 0.6}, // WH is weakest at k=1
		{0.975, 5, 12.833, 0.2},
		{0.05, 10, 3.940, 0.15},
	}
	for _, c := range cases {
		if got := ChiSquareQuantile(c.p, c.k); !almostEqual(got, c.want, c.tol) {
			t.Errorf("ChiSq(%v, %d) = %v, want %v +- %v", c.p, c.k, got, c.want, c.tol)
		}
	}
	if ChiSquareQuantile(0.95, 0) != 0 {
		t.Error("k=0 should give 0")
	}
}

func TestChiSquareQuantileMonotoneInDF(t *testing.T) {
	prev := 0.0
	for k := 1; k <= 100; k++ {
		q := ChiSquareQuantile(0.975, k)
		if q < prev {
			t.Fatalf("chi-square quantile not monotone in df at k=%d", k)
		}
		prev = q
	}
}

func TestSoftThreshold(t *testing.T) {
	cases := []struct{ x, t, want float64 }{
		{3, 1, 2},
		{-3, 1, -2},
		{0.5, 1, 0},
		{-0.5, 1, 0},
		{1, 1, 0},
	}
	for _, c := range cases {
		if got := SoftThreshold(c.x, c.t); got != c.want {
			t.Errorf("SoftThreshold(%v,%v) = %v, want %v", c.x, c.t, got, c.want)
		}
	}
}

func TestSoftThresholdShrinks(t *testing.T) {
	f := func(x, th float64) bool {
		th = math.Abs(math.Mod(th, 10))
		x = math.Mod(x, 100)
		y := SoftThreshold(x, th)
		return math.Abs(y) <= math.Abs(x)+1e-12 && y*x >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
