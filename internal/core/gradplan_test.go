package core

import (
	"math"
	"testing"

	"slimfast/internal/data"
	"slimfast/internal/mathx"
	"slimfast/internal/optim"
	"slimfast/internal/randx"
)

// accumGradientOracle is the per-(claim, feature) Add walk the gradient
// plan replaced, kept as the plan's oracle: the same residual, routed
// to the weights by one Add per claim coordinate (skipping claims whose
// residual is exactly 0) and one per copy agreement. σ and the scores
// follow the pre-plan code too, re-summing SourceFeatures per claim.
func (m *Model) accumGradientOracle(w []float64, g *optim.Sparse, o data.ObjectID, truth data.ValueID, q []float64) {
	dom := m.lay.dom[o]
	n := len(dom)
	if n == 0 {
		return
	}
	fb := m.featBase()
	scores := make([]float64, n)
	if m.opts.OpenWorld {
		scores[n-1] = m.opts.OpenWorldBias
	}
	obs := m.ds.ObjectObservations(o)
	base := m.lay.obsBase[o]
	classBase := m.classOfObject(o) * m.numSources
	for i, ob := range obs {
		sgm := w[classBase+int(ob.Source)]
		if m.opts.UseFeatures {
			for _, k := range m.ds.SourceFeatures[ob.Source] {
				sgm += w[fb+int(k)]
			}
		}
		scores[m.lay.obsLocal[base+i]] += sgm
	}
	if m.opts.CopyFeatures {
		for _, ag := range m.objCopyAgree[o] {
			wp := w[fb+m.numFeatures+ag.pair]
			for i, v := range dom {
				if v != ag.value {
					scores[i] += wp
				}
			}
		}
	}
	probs := mathx.Softmax(scores, nil)
	r := make([]float64, n)
	for j, v := range dom {
		if q != nil {
			r[j] = probs[j] - q[j]
		} else {
			r[j] = probs[j]
			if v == truth {
				r[j] -= 1
			}
		}
	}
	for i, ob := range obs {
		rv := r[m.lay.obsLocal[base+i]]
		if rv == 0 {
			continue
		}
		g.Add(classBase+int(ob.Source), rv)
		if m.opts.UseFeatures {
			for _, k := range m.ds.SourceFeatures[ob.Source] {
				g.Add(fb+int(k), rv)
			}
		}
	}
	if m.opts.CopyFeatures {
		for _, ag := range m.objCopyAgree[o] {
			var sum float64
			for i, v := range dom {
				if v != ag.value {
					sum += r[i]
				}
			}
			g.Add(fb+m.numFeatures+ag.pair, sum)
		}
	}
}

// sparseBits returns the accumulator's coordinates mapped to the bit
// patterns of their values, failing on a coordinate listed twice.
func sparseBits(t *testing.T, g *optim.Sparse) map[int]uint64 {
	t.Helper()
	out := make(map[int]uint64, g.Len())
	for i := 0; i < g.Len(); i++ {
		j, v := g.At(i)
		if _, dup := out[j]; dup {
			t.Fatalf("coordinate %d listed twice", j)
		}
		out[j] = math.Float64bits(v)
	}
	return out
}

// planModels compiles the golden instance under every option family
// the plan has a branch for.
func planModels(t *testing.T) map[string]*Model {
	t.Helper()
	inst := goldenInstance(t)
	classes := make([]int, inst.Dataset.NumObjects())
	for o := range classes {
		classes[o] = o % 3
	}
	out := map[string]*Model{}
	for name, edit := range map[string]func(*Options){
		"features":    func(*Options) {},
		"no-features": func(o *Options) { o.UseFeatures = false },
		"copy":        func(o *Options) { o.CopyFeatures = true },
		"copy-no-features": func(o *Options) {
			o.CopyFeatures = true
			o.UseFeatures = false
		},
		"classes": func(o *Options) {
			o.ObjectClasses = classes
			o.NumClasses = 3
		},
		"openworld": func(o *Options) {
			o.OpenWorld = true
			o.OpenWorldBias = -1
		},
		"openworld-copy-classes": func(o *Options) {
			o.OpenWorld = true
			o.OpenWorldBias = 0.5
			o.CopyFeatures = true
			o.ObjectClasses = classes
			o.NumClasses = 3
		},
	} {
		opts := DefaultOptions()
		opts.Workers = 1
		edit(&opts)
		m, err := Compile(inst.Dataset, opts)
		if err != nil {
			t.Fatal(err)
		}
		if name != "no-features" && name != "copy-no-features" && len(m.plan.feat) == 0 {
			t.Fatalf("%s: plan lists no feature coordinates", name)
		}
		if opts.CopyFeatures && m.NumCopyPairs() == 0 {
			t.Fatalf("%s: no copy pairs compiled", name)
		}
		out[name] = m
	}
	return out
}

// TestGradientPlanMatchesAddLoop checks the plan-driven accumGradient
// against the Add-walk oracle, bit for bit on the touched coordinate
// set and every value: ERM and EM residuals, and residuals forced to exactly 0 for all or some of an
// object's values (those coordinates must stay untouched).
func TestGradientPlanMatchesAddLoop(t *testing.T) {
	for name, m := range planModels(t) {
		t.Run(name, func(t *testing.T) {
			rng := randx.New(11)
			w := make([]float64, len(m.w))
			for i := range w {
				w[i] = 2*rng.Float64() - 1
			}
			setWeights(t, m, w)
			w = m.w
			sc := &scratch{}
			got, want := optim.NewSparse(), optim.NewSparse()
			cases, zeroed := 0, 0
			for o := 0; o < m.ds.NumObjects(); o++ {
				oid := data.ObjectID(o)
				dom := m.lay.dom[o]
				if len(dom) == 0 {
					continue
				}
				// probs is the object's posterior at w, which the
				// per-step σ reproduces exactly, so q == probs yields
				// residuals of exactly 0.
				scores, _ := m.objectScores(oid, m.sigmaTable(), nil)
				probs := mathx.Softmax(scores, nil)
				qAll := append([]float64(nil), probs...)
				qSome := append([]float64(nil), probs...)
				for j := range qSome {
					if j%2 == 1 {
						qSome[j] = 1 / float64(len(dom))
					}
				}
				qRand := make([]float64, len(dom))
				for j := range qRand {
					qRand[j] = rng.Float64()
				}
				type residual struct {
					truth data.ValueID
					q     []float64
				}
				for _, res := range []residual{
					{dom[0], nil}, {dom[len(dom)-1], nil},
					{data.None, qRand}, {data.None, qAll}, {data.None, qSome},
				} {
					got.Reset()
					want.Reset()
					m.accumGradient(w, got, oid, res.truth, res.q, sc)
					m.accumGradientOracle(w, want, oid, res.truth, res.q)
					gb, wb := sparseBits(t, got), sparseBits(t, want)
					if len(gb) != len(wb) {
						t.Fatalf("object %d: plan touched %d coordinates, Add walk %d", o, len(gb), len(wb))
					}
					for j, bits := range wb {
						if gb[j] != bits {
							t.Fatalf("object %d coordinate %d: plan %v, Add walk %v", o, j, math.Float64frombits(gb[j]), math.Float64frombits(bits))
						}
					}
					if len(wb) < len(m.plan.coord[m.plan.coordStart[o]:m.plan.coordStart[o+1]]) {
						zeroed++
					}
					cases++
				}
			}
			if zeroed == 0 {
				t.Errorf("no case left a plan coordinate untouched (of %d)", cases)
			}
		})
	}
}

// TestGradientPlanLayout pins the plan's structure on a hand-checked
// instance: per-source feature coordinates, each object's distinct
// coordinates (sources by claim, then features in first-touch order)
// and each claim's feature slots.
func TestGradientPlanLayout(t *testing.T) {
	b := data.NewBuilder("plan")
	b.ObserveNames("s0", "o0", "x")
	b.ObserveNames("s1", "o0", "y")
	b.ObserveNames("s2", "o0", "x")
	b.ObserveNames("s1", "o1", "x")
	b.Object("empty")
	b.SetFeature(b.Source("s0"), "f0")
	b.SetFeature(b.Source("s0"), "f1")
	b.SetFeature(b.Source("s2"), "f1")
	m, err := Compile(b.Freeze(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	p := m.plan
	// Weights: s0..s2 at 0..2, f0 at 3, f1 at 4.
	eq := func(name string, got, want []int32) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s = %v, want %v", name, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s = %v, want %v", name, got, want)
			}
		}
	}
	eq("featStart", p.featStart, []int32{0, 2, 2, 3})
	eq("feat", p.feat, []int32{3, 4, 4})
	eq("coordStart", p.coordStart, []int32{0, 5, 6, 6})
	// o0 lists its claims' sources s0, s1, s2, then f0 and f1 as s0
	// first reaches them; o1 lists s1.
	eq("coord", p.coord, []int32{0, 1, 2, 3, 4, 1})
	eq("slotStart", p.slotStart, []int32{0, 3, 3, 3})
	// o0: s0 reaches f0 and f1 (positions 3, 4), s2 reaches f1.
	eq("slot", p.slot, []int32{3, 4, 4})
}
