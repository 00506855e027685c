package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"slimfast/internal/data"
	"slimfast/internal/randx"
	"slimfast/internal/synth"
)

// The fingerprints below were recorded from the pre-compiled-layout
// implementation (PR 1). The compiled hot-path layout (σ caching,
// precomputed score indices, scratch buffers, dense posteriors) must
// reproduce the learning trajectory and inference output bit for bit:
// any fingerprint drift means the refactor changed arithmetic, not just
// layout.
var goldenFingerprints = map[string]uint64{
	"em-default": 0xcf05ddcbebb57c9b,
	"erm":        0xda6766f6992b64d9,
	"em-copy":    0x56f05e2556172e9b,
}

// goldenInstance builds the synth dataset the golden scenarios share.
func goldenInstance(t testing.TB) *synth.Instance {
	t.Helper()
	inst, err := synth.Generate(synth.Config{
		Name: "golden", Sources: 40, Objects: 300, DomainSize: 3,
		Assignment: synth.IIDDensity, Density: 0.2,
		MeanAccuracy: 0.7, AccuracySD: 0.12, MinAccuracy: 0.45, MaxAccuracy: 0.95,
		Features: []synth.FeatureGroup{
			{Name: "a", Cardinality: 6, Informative: true, WeightScale: 1.5},
			{Name: "b", Cardinality: 5, Informative: false},
		},
		EnsureTruthObserved: true, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// fingerprint hashes the exact bit patterns of the learned weights, the
// fused values, and the posteriors (objects in id order, domain values
// ascending within each object).
func fingerprint(m *Model, res *Result) uint64 {
	h := fnv.New64a()
	var b8 [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(b8[:], u)
		h.Write(b8[:])
	}
	for _, x := range m.w {
		put(math.Float64bits(x))
	}
	posts := res.Posteriors()
	objs := make([]int, 0, len(posts))
	for o := range posts {
		objs = append(objs, int(o))
	}
	sort.Ints(objs)
	for _, o := range objs {
		put(uint64(o))
		put(uint64(int64(res.Values[data.ObjectID(o)])))
		post := posts[data.ObjectID(o)]
		vals := make([]int, 0, len(post))
		for v := range post {
			vals = append(vals, int(v))
		}
		sort.Ints(vals)
		for _, v := range vals {
			put(uint64(int64(v)))
			put(math.Float64bits(post[data.ValueID(v)]))
		}
	}
	return h.Sum64()
}

func goldenScenarios(t testing.TB) map[string]func() (*Model, *Result) {
	inst := goldenInstance(t)
	train, _ := data.Split(inst.Gold, 0.3, randx.New(7))
	compile := func(opts Options) *Model {
		opts.Workers = 1
		m, err := Compile(inst.Dataset, opts)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	fuse := func(m *Model, alg Algorithm, tr data.TruthMap) (*Model, *Result) {
		res, err := m.Fuse(alg, tr)
		if err != nil {
			t.Fatal(err)
		}
		return m, res
	}
	return map[string]func() (*Model, *Result){
		"em-default": func() (*Model, *Result) {
			return fuse(compile(DefaultOptions()), AlgorithmEM, nil)
		},
		"erm": func() (*Model, *Result) {
			return fuse(compile(DefaultOptions()), AlgorithmERM, train)
		},
		"em-copy": func() (*Model, *Result) {
			opts := DefaultOptions()
			opts.CopyFeatures = true
			return fuse(compile(opts), AlgorithmEM, nil)
		},
	}
}

// TestBitIdenticalToPreRefactor locks the compiled hot-path layout to
// the exact output of the straightforward implementation it replaced.
func TestBitIdenticalToPreRefactor(t *testing.T) {
	for name, run := range goldenScenarios(t) {
		t.Run(name, func(t *testing.T) {
			m, res := run()
			got := fingerprint(m, res)
			want, ok := goldenFingerprints[name]
			if !ok {
				t.Fatalf("no golden fingerprint for %q (got %#x)", name, got)
			}
			if got != want {
				t.Errorf("fingerprint = %#x, want %#x (results drifted from the pre-refactor trajectory)", got, want)
			}
		})
	}
}
