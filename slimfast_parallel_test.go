package slimfast

import (
	"fmt"
	"testing"
)

// buildProblem constructs a fresh medium-size facade problem (Problems
// are consumed by Solve, so equivalence runs need one each).
func buildProblem() *Problem {
	p := NewProblem("par")
	for o := 0; o < 120; o++ {
		obj := fmt.Sprintf("obj%d", o)
		truth := "x"
		if o%3 == 0 {
			truth = "y"
		}
		for s := 0; s < 12; s++ {
			if (o+s)%2 != 0 {
				continue
			}
			src := fmt.Sprintf("src%d", s)
			v := truth
			// Sources 0-3 are unreliable: they flip odd objects.
			if s < 4 && o%2 == 1 {
				if v == "x" {
					v = "y"
				} else {
					v = "x"
				}
			}
			p.AddObservation(src, obj, v)
		}
		if o%5 == 0 {
			p.SetTruth(obj, truth)
		}
	}
	for s := 0; s < 12; s++ {
		grade := "grade=good"
		if s < 4 {
			grade = "grade=bad"
		}
		p.AddFeature(fmt.Sprintf("src%d", s), grade)
	}
	return p
}

// TestWithParallelismEquivalent is the facade-level determinism check:
// WithParallelism(n) must not change any reported number. The Figure 1
// problem keeps its posteriors away from 0 and 1, where a change of
// reduction order would show.
func TestWithParallelismEquivalent(t *testing.T) {
	problems := []struct {
		name  string
		build func() *Problem
	}{{"par", buildProblem}, {"figure1", figure1Problem}}
	for _, pb := range problems {
		for _, alg := range []Algorithm{ERM, EM, Auto} {
			equivalentAcrossParallelism(t, pb.name, pb.build, alg)
		}
	}
}

// equivalentAcrossParallelism solves one problem at WithParallelism 1,
// 0 and 4 and fails unless values, confidences and source accuracies
// agree exactly.
func equivalentAcrossParallelism(t *testing.T, name string, build func() *Problem, algorithm Algorithm) {
	t.Helper()
	alg := name + "/" + string(algorithm)
	solve := func(n int) (*Report, error) {
		return build().Solve(WithAlgorithm(algorithm), WithSeed(7), WithParallelism(n))
	}
	serial, err := solve(1)
	if err != nil {
		t.Fatalf("%s serial: %v", alg, err)
	}
	for _, n := range []int{0, 4} {
		par, err := solve(n)
		if err != nil {
			t.Fatalf("%s workers=%d: %v", alg, n, err)
		}
		if par.Algorithm() != serial.Algorithm() {
			t.Fatalf("%s workers=%d: algorithm %s vs %s", alg, n, par.Algorithm(), serial.Algorithm())
		}
		sv, pv := serial.Values(), par.Values()
		if len(sv) != len(pv) {
			t.Fatalf("%s workers=%d: %d vs %d fused objects", alg, n, len(sv), len(pv))
		}
		for obj, v := range sv {
			if pv[obj] != v {
				t.Fatalf("%s workers=%d: %s fused to %q vs %q", alg, n, obj, pv[obj], v)
			}
			if c1, c2 := serial.Confidence(obj), par.Confidence(obj); c1 != c2 {
				t.Fatalf("%s workers=%d: confidence(%s) %v vs %v", alg, n, obj, c1, c2)
			}
		}
		for src, acc := range serial.SourceAccuracies() {
			if got := par.SourceAccuracies()[src]; got != acc {
				t.Fatalf("%s workers=%d: accuracy(%s) %v vs %v", alg, n, src, got, acc)
			}
		}
	}
}

func TestWithParallelismSmoke(t *testing.T) {
	rep, err := buildProblem().Solve(WithAlgorithm(ERM), WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := rep.Value("obj0"); !ok || v != "y" {
		t.Errorf("obj0 = %q (ok=%v), want y", v, ok)
	}
	good := rep.SourceAccuracy("src8")
	bad := rep.SourceAccuracy("src1")
	if good <= bad {
		t.Errorf("reliable source should outrank flipper: %v vs %v", good, bad)
	}
}
