package factor

import (
	"math"
	"testing"
)

// buildUnaryGraph compiles a small fully factorized graph: every factor
// is unary, matching the structure SLiMFast's Equation 4 compiles to.
func buildUnaryGraph(t *testing.T) *Graph {
	t.Helper()
	var g Graph
	weights := [][]float64{
		{1.2, -0.3, 0.1},
		{0.0, 0.9},
		{-0.5, 0.5, 1.5, -1.0},
		{2.0, 0.0},
	}
	for v, ws := range weights {
		id := g.AddVariable(len(ws))
		for d, w := range ws {
			if err := g.AddFactor(Factor{Vars: []int{id}, Weight: w, Potential: IndicatorEquals(d)}); err != nil {
				t.Fatal(err)
			}
		}
		_ = v
	}
	if err := g.SetEvidence(3, 1); err != nil {
		t.Fatal(err)
	}
	return &g
}

// TestGibbsIndependentChainsDeterministic: each variable draws from
// its own (Seed, variable) stream, so marginals are bit-identical for
// every worker count, 1 included.
func TestGibbsIndependentChainsDeterministic(t *testing.T) {
	g := buildUnaryGraph(t)
	run := func(workers int) [][]float64 {
		m, err := g.Gibbs(GibbsConfig{Samples: 500, Seed: 7}, workers)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	// Workers=0 (the default: GOMAXPROCS fan-out) must match any
	// explicit count.
	ref := run(1)
	for _, workers := range []int{0, 2, 8} {
		m := run(workers)
		for v := range ref {
			for d := range ref[v] {
				if m[v][d] != ref[v][d] {
					t.Fatalf("workers=%d: marginal[%d][%d] = %v, workers=1 gives %v", workers, v, d, m[v][d], ref[v][d])
				}
			}
		}
	}
	// Evidence stays a point mass.
	if ref[3][1] != 1 || ref[3][0] != 0 {
		t.Fatalf("evidence marginal = %v, want point mass on 1", ref[3])
	}
}

// TestGibbsIndependentChainsMatchExact: the independent-chain sampler
// must estimate the same distribution the closed form computes.
func TestGibbsIndependentChainsMatchExact(t *testing.T) {
	g := buildUnaryGraph(t)
	exact, err := g.ExactMarginalsSingleton()
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := g.Gibbs(GibbsConfig{Samples: 20000, Seed: 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for v := range exact {
		for d := range exact[v] {
			if diff := math.Abs(exact[v][d] - sampled[v][d]); diff > 0.02 {
				t.Errorf("marginal[%d][%d]: exact %v vs sampled %v (diff %v)", v, d, exact[v][d], sampled[v][d], diff)
			}
		}
	}
}

// TestGibbsRejectsCoupledLatents: a factor over two latent variables
// has no independent-chain sampler, so Gibbs refuses the graph; the
// same factor with one side pinned as evidence is accepted.
func TestGibbsRejectsCoupledLatents(t *testing.T) {
	var g Graph
	a := g.AddVariable(2)
	b := g.AddVariable(2)
	agree := func(vals []int) float64 {
		if vals[0] == vals[1] {
			return 1
		}
		return 0
	}
	if err := g.AddFactor(Factor{Vars: []int{a, b}, Weight: 1.1, Potential: agree}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Gibbs(GibbsConfig{Samples: 10, Seed: 11}, 1); err == nil {
		t.Fatal("a latent-latent factor should be rejected")
	}
	if err := g.SetEvidence(b, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Gibbs(GibbsConfig{Samples: 10, Seed: 11}, 1); err != nil {
		t.Fatalf("a latent-evidence factor should be accepted: %v", err)
	}
}

// TestGibbsIndependentEvidenceCoupling: factors joining a latent to an
// evidence variable keep chains independent (the evidence side is a
// constant), and the conditional must reflect the pinned value.
func TestGibbsIndependentEvidenceCoupling(t *testing.T) {
	var g Graph
	a := g.AddVariable(2)
	e := g.AddVariable(2)
	if err := g.SetEvidence(e, 1); err != nil {
		t.Fatal(err)
	}
	match := func(vals []int) float64 {
		if vals[0] == vals[1] {
			return 1
		}
		return 0
	}
	if err := g.AddFactor(Factor{Vars: []int{a, e}, Weight: 2.0, Potential: match}); err != nil {
		t.Fatal(err)
	}
	m, err := g.Gibbs(GibbsConfig{Samples: 20000, Seed: 5}, 4)
	if err != nil {
		t.Fatal(err)
	}
	// P(a=1) = logistic(2.0) ≈ 0.881.
	want := 1 / (1 + math.Exp(-2.0))
	if diff := math.Abs(m[a][1] - want); diff > 0.02 {
		t.Errorf("P(a=1) = %v, want ≈ %v", m[a][1], want)
	}
}
