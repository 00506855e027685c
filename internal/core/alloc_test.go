package core

import (
	"testing"

	"slimfast/internal/data"
	"slimfast/internal/mathx"
	"slimfast/internal/optim"
)

// The allocation-regression tier: the compiled hot-path layout exists
// so the per-object inner loops do no allocation in steady state (after
// the scratch buffers have grown to the largest domain). A regression
// here means a map, domain copy, or closure crept back into the loops.

func allocModel(t *testing.T, opts Options) *Model {
	t.Helper()
	inst := goldenInstance(t)
	m, err := Compile(inst.Dataset, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.FitEM(nil); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestObjectScoresZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"default", DefaultOptions()},
		{"openworld", func() Options {
			o := DefaultOptions()
			o.OpenWorld = true
			o.OpenWorldBias = -1
			return o
		}()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := allocModel(t, tc.opts)
			sg := m.sigmaTable()
			sc := &scratch{}
			nObj := m.ds.NumObjects()
			scoreAll := func() {
				for o := 0; o < nObj; o++ {
					scores, _ := m.objectScores(data.ObjectID(o), sg, sc.scores)
					sc.scores = scores
				}
			}
			scoreAll() // warm the scratch to the largest domain
			if allocs := testing.AllocsPerRun(20, scoreAll); allocs != 0 {
				t.Errorf("objectScores allocates %.1f times per full pass, want 0", allocs)
			}
		})
	}
}

func TestAccumGradientZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	nObj := goldenInstance(t).Dataset.NumObjects()
	classes := make([]int, nObj)
	for o := range classes {
		classes[o] = o % 2
	}
	// The default model (features on) runs unprefixed; the copy-pair
	// and per-class models prefix their subtests.
	for _, mc := range []struct {
		name string
		edit func(*Options)
	}{
		{"", func(*Options) {}},
		{"copy-pairs", func(o *Options) { o.CopyFeatures = true }},
		{"classes", func(o *Options) {
			o.ObjectClasses = classes
			o.NumClasses = 2
		}},
	} {
		opts := DefaultOptions()
		mc.edit(&opts)
		m := allocModel(t, opts)
		g := optim.NewSparseSized(len(m.w))
		sc := &scratch{}
		// q holds posteriors for the EM-residual variants, precomputed
		// outside the measured loop the way FitEM holds them across the
		// M-step: raw scores (residuals all nonzero) and the posteriors
		// at the current weights (residuals exactly 0, so the plan path
		// narrows each object's coordinate list).
		q := make([][]float64, nObj)
		post := make([][]float64, nObj)
		for o := 0; o < nObj; o++ {
			scores, _ := m.objectScores(data.ObjectID(o), m.sigmaTable(), nil)
			q[o] = scores
			post[o] = mathx.Softmax(scores, nil)
		}
		for _, tc := range []struct {
			name string
			run  func()
		}{
			{"erm-per-step", func() {
				for o := 0; o < nObj; o++ {
					dom := m.lay.dom[o]
					if len(dom) == 0 {
						continue
					}
					g.Reset()
					m.accumGradient(m.w, g, data.ObjectID(o), dom[0], nil, sc)
				}
			}},
			{"em-per-step", func() {
				for o := 0; o < nObj; o++ {
					g.Reset()
					m.accumGradient(m.w, g, data.ObjectID(o), data.None, q[o], sc)
				}
			}},
			{"em-zero-residual", func() {
				for o := 0; o < nObj; o++ {
					g.Reset()
					m.accumGradient(m.w, g, data.ObjectID(o), data.None, post[o], sc)
				}
			}},
		} {
			name := tc.name
			if mc.name != "" {
				name = mc.name + "/" + tc.name
			}
			t.Run(name, func(t *testing.T) {
				tc.run() // warm the scratch buffers and the accumulator
				if allocs := testing.AllocsPerRun(20, tc.run); allocs != 0 {
					t.Errorf("accumGradient allocates %.1f times per full pass, want 0", allocs)
				}
			})
		}
	}
}
