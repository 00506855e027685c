package factor

import (
	"math"
	"testing"

	"slimfast/internal/mathx"
)

func TestAddVariableAndFactorValidation(t *testing.T) {
	var g Graph
	v := g.AddVariable(3)
	if v != 0 || g.NumVariables() != 1 || g.Cardinality(0) != 3 {
		t.Fatal("AddVariable bookkeeping wrong")
	}
	if err := g.AddFactor(Factor{Vars: []int{0}, Weight: 1, Potential: IndicatorEquals(0)}); err != nil {
		t.Fatal(err)
	}
	if g.NumFactors() != 1 {
		t.Error("NumFactors wrong")
	}
	if err := g.AddFactor(Factor{Vars: []int{5}, Weight: 1, Potential: IndicatorEquals(0)}); err == nil {
		t.Error("out-of-range variable should error")
	}
	if err := g.AddFactor(Factor{Vars: []int{0}, Weight: 1}); err == nil {
		t.Error("nil potential should error")
	}
	if err := g.AddFactor(Factor{Weight: 1, Potential: IndicatorEquals(0)}); err == nil {
		t.Error("empty vars should error")
	}
}

func TestAddVariablePanicsOnBadCardinality(t *testing.T) {
	var g Graph
	defer func() {
		if recover() == nil {
			t.Error("cardinality 0 should panic")
		}
	}()
	g.AddVariable(0)
}

func TestSetEvidence(t *testing.T) {
	var g Graph
	g.AddVariable(2)
	if err := g.SetEvidence(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.SetEvidence(0, 5); err == nil {
		t.Error("out-of-range evidence should error")
	}
	if err := g.SetEvidence(3, 0); err == nil {
		t.Error("out-of-range variable should error")
	}
	if err := g.SetEvidence(0, -1); err != nil {
		t.Errorf("clearing evidence should be allowed: %v", err)
	}
}

// buildBiased builds one binary variable with a single indicator factor
// of weight w on value 1, so P(X=1) = logistic(w).
func buildBiased(w float64) *Graph {
	var g Graph
	g.AddVariable(2)
	_ = g.AddFactor(Factor{Vars: []int{0}, Weight: w, Potential: IndicatorEquals(1)})
	return &g
}

func TestExactMarginalsMatchLogistic(t *testing.T) {
	for _, w := range []float64{-2, 0, 0.5, 3} {
		g := buildBiased(w)
		m, err := g.ExactMarginalsSingleton()
		if err != nil {
			t.Fatal(err)
		}
		want := mathx.Logistic(w)
		if math.Abs(m[0][1]-want) > 1e-12 {
			t.Errorf("w=%v: P(X=1) = %v, want %v", w, m[0][1], want)
		}
	}
}

func TestGibbsMatchesExactOnSingleton(t *testing.T) {
	g := buildBiased(1.2)
	exact, err := g.ExactMarginalsSingleton()
	if err != nil {
		t.Fatal(err)
	}
	gibbs, err := g.Gibbs(GibbsConfig{Samples: 20000, Seed: 7}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gibbs[0][1]-exact[0][1]) > 0.02 {
		t.Errorf("Gibbs %v vs exact %v", gibbs[0][1], exact[0][1])
	}
}

func TestGibbsRespectsEvidence(t *testing.T) {
	g := buildBiased(-5) // strongly prefers value 0
	if err := g.SetEvidence(0, 1); err != nil {
		t.Fatal(err)
	}
	m, err := g.Gibbs(DefaultGibbsConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if m[0][1] != 1 || m[0][0] != 0 {
		t.Errorf("evidence ignored: %v", m[0])
	}
	exact, err := g.ExactMarginalsSingleton()
	if err != nil {
		t.Fatal(err)
	}
	if exact[0][1] != 1 {
		t.Errorf("exact marginals ignore evidence: %v", exact[0])
	}
}

func TestExactMarginalsRejectsPairwise(t *testing.T) {
	var g Graph
	g.AddVariable(2)
	g.AddVariable(2)
	_ = g.AddFactor(Factor{Vars: []int{0, 1}, Weight: 1, Potential: func(v []int) float64 { return 1 }})
	if _, err := g.ExactMarginalsSingleton(); err == nil {
		t.Error("pairwise factor should be rejected")
	}
}

func TestGibbsConfigValidation(t *testing.T) {
	g := buildBiased(0)
	if _, err := g.Gibbs(GibbsConfig{Samples: 0}, 0); err == nil {
		t.Error("Samples=0 should error")
	}
}

func TestGibbsDeterministicPerSeed(t *testing.T) {
	g := buildBiased(0.7)
	cfg := GibbsConfig{Samples: 100, Seed: 5}
	m1, err := g.Gibbs(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := g.Gibbs(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m1[0][0] != m2[0][0] {
		t.Error("same seed must reproduce the chain")
	}
}

func TestIndicatorPotentials(t *testing.T) {
	eq := IndicatorEquals(2)
	if eq([]int{2}) != 1 || eq([]int{1}) != 0 {
		t.Error("IndicatorEquals wrong")
	}
	ne := IndicatorNotEquals(2)
	if ne([]int{2}) != 0 || ne([]int{1}) != 1 {
		t.Error("IndicatorNotEquals wrong")
	}
}

func TestSlimFastEquation4Compilation(t *testing.T) {
	// Compile a 3-source object per Equation 4: sources with scores
	// σ = [2, 2, 1]; sources 0,1 vote value 0, source 2 votes value 1.
	// P(To=0) = e^{4} / (e^{4} + e^{1}).
	var g Graph
	v := g.AddVariable(2)
	votes := []struct {
		val   int
		sigma float64
	}{{0, 2}, {0, 2}, {1, 1}}
	for _, vt := range votes {
		if err := g.AddFactor(Factor{Vars: []int{v}, Weight: vt.sigma, Potential: IndicatorEquals(vt.val)}); err != nil {
			t.Fatal(err)
		}
	}
	m, err := g.ExactMarginalsSingleton()
	if err != nil {
		t.Fatal(err)
	}
	want := math.Exp(4) / (math.Exp(4) + math.Exp(1))
	if math.Abs(m[v][0]-want) > 1e-12 {
		t.Errorf("Equation 4 posterior = %v, want %v", m[v][0], want)
	}
}
