package slimfast

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// figure1Problem builds the paper's Figure 1 example.
func figure1Problem() *Problem {
	p := NewProblem("genomics")
	p.AddObservation("article1", "GIGYF2,Parkinson", "false")
	p.AddObservation("article2", "GIGYF2,Parkinson", "false")
	p.AddObservation("article3", "GIGYF2,Parkinson", "true")
	p.AddObservation("article1", "GBA,Parkinson", "true")
	p.AddObservation("article3", "GBA,Parkinson", "true")
	p.SetTruth("GBA,Parkinson", "true")
	return p
}

func TestSolveFigure1(t *testing.T) {
	// EM exploits the 2-vs-1 conflict structure; ERM with a single
	// label cannot break the tie, so pin the algorithm here.
	rep, err := figure1Problem().Solve(WithSeed(1), WithAlgorithm(EM))
	if err != nil {
		t.Fatal(err)
	}
	v, ok := rep.Value("GIGYF2,Parkinson")
	if !ok {
		t.Fatal("no fused value for GIGYF2,Parkinson")
	}
	if v != "false" {
		t.Errorf("fused value = %q, want \"false\" (two sources against one)", v)
	}
	if conf := rep.Confidence("GIGYF2,Parkinson"); conf <= 0.5 || conf > 1 {
		t.Errorf("confidence = %v, want in (0.5, 1]", conf)
	}
	// Labeled object returned verbatim with confidence 1.
	if v, _ := rep.Value("GBA,Parkinson"); v != "true" {
		t.Errorf("labeled object value = %q", v)
	}
	if rep.Confidence("GBA,Parkinson") != 1 {
		t.Error("labeled object should have confidence 1")
	}
}

func TestSolveAlgorithms(t *testing.T) {
	for _, alg := range []Algorithm{Auto, ERM, EM} {
		rep, err := figure1Problem().Solve(WithAlgorithm(alg), WithSeed(2))
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if alg != Auto && rep.Algorithm() != alg {
			t.Errorf("Algorithm() = %q, want %q", rep.Algorithm(), alg)
		}
		if alg == Auto && rep.Algorithm() != ERM && rep.Algorithm() != EM {
			t.Errorf("Auto should resolve to erm or em, got %q", rep.Algorithm())
		}
	}
	if _, err := figure1Problem().Solve(WithAlgorithm("bogus")); err == nil {
		t.Error("unknown algorithm should error")
	}
}

func TestSolveEmptyProblem(t *testing.T) {
	p := NewProblem("empty")
	if _, err := p.Solve(); err == nil {
		t.Error("empty problem should error")
	}
}

// A second Solve returns an error instead of dereferencing the builder
// the first one consumed — also after a first Solve that failed.
func TestSolveTwice(t *testing.T) {
	p := figure1Problem()
	if _, err := p.Solve(WithSeed(1), WithAlgorithm(EM)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Solve(); err == nil || !strings.Contains(err.Error(), "already solved") {
		t.Errorf("second Solve: err = %v, want an already-solved error", err)
	}
	empty := NewProblem("empty")
	empty.Solve()
	if _, err := empty.Solve(); err == nil || !strings.Contains(err.Error(), "already solved") {
		t.Errorf("Solve after a failed Solve: err = %v, want an already-solved error", err)
	}
}

func TestSolveUnknownTruthValue(t *testing.T) {
	p := NewProblem("bad")
	p.AddObservation("s", "o", "x")
	p.SetTruth("o", "never-observed")
	if _, err := p.Solve(); err == nil {
		t.Error("truth with unobserved value should error")
	}
}

func TestReportAccessors(t *testing.T) {
	rep, err := figure1Problem().Solve(WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rep.Value("unknown-object"); ok {
		t.Error("unknown object should report !ok")
	}
	if rep.Confidence("unknown-object") != 0 {
		t.Error("unknown object confidence should be 0")
	}
	if rep.Posterior("unknown-object") != nil {
		t.Error("unknown object posterior should be nil")
	}
	post := rep.Posterior("GIGYF2,Parkinson")
	var sum float64
	for _, p := range post {
		sum += p
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("posterior sums to %v", sum)
	}
	values := rep.Values()
	if len(values) != 2 {
		t.Errorf("Values() has %d entries, want 2", len(values))
	}
	accs := rep.SourceAccuracies()
	if len(accs) != 3 {
		t.Errorf("SourceAccuracies() has %d entries, want 3", len(accs))
	}
	for s, a := range accs {
		if a <= 0 || a >= 1 {
			t.Errorf("accuracy of %s out of (0,1): %v", s, a)
		}
	}
	if rep.SourceAccuracy("nope") != 0.5 {
		t.Error("unknown source should get 0.5")
	}
}

func TestFeatureWeightsAndPrediction(t *testing.T) {
	p := NewProblem("feat")
	// Sources with feature "good" are right; "bad" sources are wrong.
	for i := 0; i < 12; i++ {
		obj := fmt.Sprintf("o%d", i)
		p.AddObservation("g1", obj, "right")
		p.AddObservation("g2", obj, "right")
		p.AddObservation("b1", obj, "wrong")
		p.SetTruth(obj, "right")
	}
	p.AddFeature("g1", "good")
	p.AddFeature("g2", "good")
	p.AddFeature("b1", "bad")
	rep, err := p.Solve(WithAlgorithm(ERM), WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	fw := rep.FeatureWeights()
	if fw["good"] <= fw["bad"] {
		t.Errorf("good feature weight (%v) should exceed bad (%v)", fw["good"], fw["bad"])
	}
	pg := rep.PredictSourceAccuracy([]string{"good"})
	pb := rep.PredictSourceAccuracy([]string{"bad"})
	if pg <= pb {
		t.Errorf("predicted accuracy for good features (%v) should exceed bad (%v)", pg, pb)
	}
}

func TestWithoutFeaturesOption(t *testing.T) {
	p := figure1Problem()
	p.AddFeature("article1", "f")
	rep, err := p.Solve(WithoutFeatures(), WithAlgorithm(ERM), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if w := rep.FeatureWeights()["f"]; w != 0 {
		t.Errorf("feature weight should stay 0 without features, got %v", w)
	}
}

func TestCopyDetectionOption(t *testing.T) {
	p := NewProblem("copy")
	for i := 0; i < 10; i++ {
		obj := fmt.Sprintf("o%d", i)
		// a and b always agree (suspected copiers); c independent.
		v := "x"
		if i%2 == 0 {
			v = "y"
		}
		p.AddObservation("a", obj, v)
		p.AddObservation("b", obj, v)
		p.AddObservation("c", obj, "x")
		p.SetTruth(obj, "x")
	}
	rep, err := p.Solve(WithCopyDetection(3), WithAlgorithm(ERM), WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	pairs := rep.CopyPairs()
	if len(pairs) == 0 {
		t.Fatal("copy detection should find candidate pairs")
	}
	if pairs[0].SourceA == pairs[0].SourceB {
		t.Error("degenerate copy pair")
	}
	// The (a, b) pair should rank top by weight.
	top := pairs[0]
	isAB := (top.SourceA == "a" && top.SourceB == "b") || (top.SourceA == "b" && top.SourceB == "a")
	if !isAB {
		t.Errorf("top copy pair = (%s, %s), want (a, b)", top.SourceA, top.SourceB)
	}
}

func TestDecisionExposed(t *testing.T) {
	rep, err := figure1Problem().Solve(WithSeed(8), WithOptimizerThreshold(0.1))
	if err != nil {
		t.Fatal(err)
	}
	dec := rep.Decision()
	if dec.Algorithm != ERM && dec.Algorithm != EM {
		t.Errorf("decision algorithm = %q", dec.Algorithm)
	}
}

func TestLassoPathThroughFacade(t *testing.T) {
	p := NewProblem("lasso")
	truth := map[string]string{}
	for i := 0; i < 30; i++ {
		obj := fmt.Sprintf("o%d", i)
		p.AddObservation("good1", obj, "right")
		p.AddObservation("good2", obj, "right")
		p.AddObservation("bad1", obj, "wrong")
		p.AddObservation("bad2", obj, "wrong")
		truth[obj] = "right"
		p.SetTruth(obj, "right")
	}
	for _, s := range []string{"good1", "good2"} {
		p.AddFeature(s, "verified")
		p.AddFeature(s, "color=blue")
	}
	for _, s := range []string{"bad1", "bad2"} {
		p.AddFeature(s, "unverified")
		p.AddFeature(s, "color=blue")
	}
	rep, err := p.Solve(WithAlgorithm(ERM), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	order, err := rep.LassoPath(truth, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 {
		t.Fatalf("expected 3 features, got %v", order)
	}
	// The uninformative shared feature should activate last.
	if order[len(order)-1] != "color=blue" {
		t.Errorf("activation order = %v; color=blue should be last", order)
	}
}

func TestWriteJSON(t *testing.T) {
	rep, err := figure1Problem().Solve(WithSeed(10))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "GIGYF2,Parkinson") {
		t.Error("JSON output missing object names")
	}
}
