package randx

import (
	"math"
	"testing"
)

func TestNewDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must give identical streams")
		}
	}
}

func TestDeriveSeedDistinctLabels(t *testing.T) {
	s1 := DeriveSeed(7, "datagen")
	s2 := DeriveSeed(7, "split")
	s3 := DeriveSeed(8, "datagen")
	if s1 == s2 || s1 == s3 || s2 == s3 {
		t.Errorf("derived seeds should differ: %d %d %d", s1, s2, s3)
	}
	if s1 != DeriveSeed(7, "datagen") {
		t.Error("DeriveSeed must be deterministic")
	}
}

func TestChildStreamsDecorrelated(t *testing.T) {
	r := New(1)
	c1 := r.Child("a")
	r2 := New(1)
	c2 := r2.Child("a")
	if c1.Float64() != c2.Float64() {
		t.Error("same parent seed + label should give same child stream")
	}
}

func TestBernoulliFrequency(t *testing.T) {
	r := New(3)
	n, hits := 20000, 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	freq := float64(hits) / float64(n)
	if math.Abs(freq-0.3) > 0.02 {
		t.Errorf("Bernoulli(0.3) frequency = %v", freq)
	}
}

func TestCategoricalProportions(t *testing.T) {
	r := New(5)
	counts := [3]int{}
	const n = 30000
	for i := 0; i < n; i++ {
		counts[r.Categorical([]float64{1, 2, 7})]++
	}
	want := [3]float64{0.1, 0.2, 0.7}
	for i, c := range counts {
		freq := float64(c) / n
		if math.Abs(freq-want[i]) > 0.02 {
			t.Errorf("categorical freq[%d] = %v, want %v", i, freq, want[i])
		}
	}
}

func TestCategoricalPanics(t *testing.T) {
	r := New(6)
	for _, ws := range [][]float64{{}, {0, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Categorical(%v) should panic", ws)
				}
			}()
			r.Categorical(ws)
		}()
	}
}

func TestIntnExcept(t *testing.T) {
	r := New(7)
	for i := 0; i < 1000; i++ {
		v := r.IntnExcept(5, 2)
		if v == 2 || v < 0 || v >= 5 {
			t.Fatalf("IntnExcept out of range: %d", v)
		}
	}
	// All other values reachable.
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		seen[r.IntnExcept(3, 0)] = true
	}
	if !seen[1] || !seen[2] || seen[0] {
		t.Errorf("IntnExcept coverage wrong: %v", seen)
	}
	defer func() {
		if recover() == nil {
			t.Error("IntnExcept(1, 0) should panic")
		}
	}()
	r.IntnExcept(1, 0)
}

func TestShuffledIsPermutation(t *testing.T) {
	r := New(11)
	p := r.Shuffled(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	r := New(12)
	s := r.SampleWithoutReplacement(10, 4)
	if len(s) != 4 {
		t.Fatalf("len = %d, want 4", len(s))
	}
	seen := map[int]bool{}
	for _, v := range s {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("invalid sample: %v", s)
		}
		seen[v] = true
	}
	defer func() {
		if recover() == nil {
			t.Error("k > n should panic")
		}
	}()
	r.SampleWithoutReplacement(3, 4)
}

func TestZipfSkew(t *testing.T) {
	r := New(13)
	draw := r.Zipf(100, 1.2)
	counts := make([]int, 100)
	for i := 0; i < 20000; i++ {
		counts[draw()]++
	}
	if counts[0] <= counts[50] {
		t.Errorf("Zipf head (%d) should dominate tail (%d)", counts[0], counts[50])
	}
	// Uniform at s=0.
	draw0 := r.Zipf(10, 0)
	c0 := make([]int, 10)
	for i := 0; i < 20000; i++ {
		c0[draw0()]++
	}
	for i, c := range c0 {
		if math.Abs(float64(c)/20000-0.1) > 0.02 {
			t.Errorf("Zipf(s=0) not uniform at %d: %d", i, c)
		}
	}
}
