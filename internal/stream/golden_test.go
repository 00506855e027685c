package stream

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"
	"testing"
)

// engineFingerprint hashes the exact bit patterns of every live
// posterior (objects sorted by name, domain entries sorted by value
// name) and every source accuracy (sources sorted by name). Two
// engines with the same fingerprint agree bit for bit.
func engineFingerprint(e *Engine) uint64 {
	h := fnv.New64a()
	var b8 [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(b8[:], u)
		h.Write(b8[:])
	}
	type entry struct {
		name string
		post map[string]float64
	}
	var objs []entry
	for s := range e.shards {
		sh := &e.shards[s]
		for ix := range sh.objs {
			obj := &sh.objs[ix]
			if !obj.live {
				continue
			}
			post := make(map[string]float64, len(obj.domain))
			for i, d := range obj.domain {
				post[e.vals.names[d.val]] = obj.post[i]
			}
			objs = append(objs, entry{obj.name, post})
		}
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i].name < objs[j].name })
	for _, o := range objs {
		h.Write([]byte(o.name))
		vals := make([]string, 0, len(o.post))
		for v := range o.post {
			vals = append(vals, v)
		}
		sort.Strings(vals)
		for _, v := range vals {
			h.Write([]byte(v))
			put(math.Float64bits(o.post[v]))
		}
	}
	srcs := append([]string(nil), e.src.names...)
	sort.Strings(srcs)
	for _, s := range srcs {
		h.Write([]byte(s))
		put(math.Float64bits(e.src.acc[e.src.ids[s]]))
	}
	return h.Sum64()
}

// ingestEngine streams the triples into a fresh engine with the given
// worker count using the canonical mixed call pattern: batches of 700
// via ObserveBatch, the remainder one Observe at a time. The pattern
// is fixed so epoch boundaries are identical across worker counts.
func ingestEngine(t *testing.T, triples [][3]string, workers int) *Engine {
	t.Helper()
	return ingestEngineChunked(t, triples, workers, goldenChunk)
}

// goldenChunk is ingestEngine's batch length: above the fan-out grain
// for two workers, so its ObserveBatch calls take the parallel path.
const goldenChunk = 700

// ingestEngineChunked is ingestEngine with chunk-claim batches.
func ingestEngineChunked(t *testing.T, triples [][3]string, workers, chunk int) *Engine {
	t.Helper()
	opts := DefaultEngineOptions()
	opts.Shards = 4
	opts.Workers = workers
	opts.EpochLength = 512
	e, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	lo := 0
	for ; lo+chunk <= len(triples); lo += chunk {
		batch := make([]Triple, chunk)
		for i, tr := range triples[lo : lo+chunk] {
			batch[i] = Triple{tr[0], tr[1], tr[2]}
		}
		e.ObserveBatch(batch)
	}
	for _, tr := range triples[lo:] {
		e.Observe(tr[0], tr[1], tr[2])
	}
	return e
}

// TestGoldenEngineMatchesSeedFuser is the acceptance gate for the
// sharded engine: after the exact re-sweep, its estimates must be
// bit-identical to the sequential seed Fuser's — for one worker and
// for four — and its source accuracies must sit at the same fixed
// point.
func TestGoldenEngineMatchesSeedFuser(t *testing.T) {
	const sweeps = 4
	inst, triples := streamInstance(t, 7)
	f, err := New(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range triples {
		f.Observe(tr[0], tr[1], tr[2])
	}
	f.Refine(sweeps)
	want := f.Estimates()

	for _, workers := range []int{1, 4} {
		e := ingestEngine(t, triples, workers)
		e.Refine(sweeps)
		got := e.Estimates()
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d estimates, seed fuser has %d", workers, len(got), len(want))
		}
		for o, v := range want {
			if got[o] != v {
				t.Errorf("workers=%d: object %s = %q, seed fuser says %q", workers, o, got[o], v)
			}
		}
		for s := 0; s < inst.Dataset.NumSources(); s++ {
			name := inst.Dataset.SourceNames[s]
			if d := math.Abs(e.SourceAccuracy(name) - f.SourceAccuracy(name)); d > 5e-3 {
				t.Errorf("workers=%d: source %s accuracy off by %.2g", workers, name, d)
			}
		}
	}
}

// TestGoldenEngineDeterministicAcrossWorkers proves the stronger
// claim: for a fixed shard count and call pattern, every posterior and
// accuracy is bit-identical whether one goroutine ingests or four.
func TestGoldenEngineDeterministicAcrossWorkers(t *testing.T) {
	_, triples := streamInstance(t, 8)
	// Both sides of the fan-out grain: 700-claim chunks fan out over
	// two workers, request-sized 64-claim chunks apply inline.
	for _, tc := range []struct {
		chunk   int
		fansOut bool
	}{{goldenChunk, true}, {64, false}} {
		if fansOut := tc.chunk/fanOutGrain >= 2; fansOut != tc.fansOut {
			t.Fatalf("chunk %d against fan-out grain %d: fans out %v, want %v", tc.chunk, fanOutGrain, fansOut, tc.fansOut)
		}
		base := engineFingerprint(ingestEngineChunked(t, triples, 1, tc.chunk))
		for _, workers := range []int{2, 4, 8} {
			if got := engineFingerprint(ingestEngineChunked(t, triples, workers, tc.chunk)); got != base {
				t.Errorf("chunk %d: workers=%d fingerprint %x != workers=1 %x", tc.chunk, workers, got, base)
			}
		}
	}
	// And the exact re-sweep preserves the property.
	e1 := ingestEngine(t, triples, 1)
	e1.Refine(3)
	e4 := ingestEngine(t, triples, 4)
	e4.Refine(3)
	if a, b := engineFingerprint(e1), engineFingerprint(e4); a != b {
		t.Errorf("post-Refine fingerprints differ: %x vs %x", a, b)
	}
}

// TestGoldenFuserRefineRunToRunDeterministic guards the satellite fix:
// the seed Fuser's Refine must accumulate in sorted object order, so
// two identical runs agree bit for bit despite Go's randomized map
// iteration.
func TestGoldenFuserRefineRunToRunDeterministic(t *testing.T) {
	_, triples := streamInstance(t, 9)
	run := func() uint64 {
		f, _ := New(DefaultOptions())
		for _, tr := range triples {
			f.Observe(tr[0], tr[1], tr[2])
		}
		f.Refine(3)
		h := fnv.New64a()
		var b8 [8]byte
		names := f.sortedObjectNames()
		for _, name := range names {
			obj := f.objects[name]
			vals := make([]string, 0, len(obj.posterior))
			for v := range obj.posterior {
				vals = append(vals, v)
			}
			sort.Strings(vals)
			h.Write([]byte(name))
			for _, v := range vals {
				h.Write([]byte(v))
				binary.LittleEndian.PutUint64(b8[:], math.Float64bits(obj.posterior[v]))
				h.Write(b8[:])
			}
		}
		srcs := make([]string, 0, len(f.sources))
		for s := range f.sources {
			srcs = append(srcs, s)
		}
		sort.Strings(srcs)
		for _, s := range srcs {
			h.Write([]byte(s))
			binary.LittleEndian.PutUint64(b8[:], math.Float64bits(f.SourceAccuracy(s)))
			h.Write(b8[:])
		}
		return h.Sum64()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("seed Fuser Refine is run-to-run nondeterministic: %x vs %x", a, b)
	}
}

// TestEngineApproximatesBatchAccuracy mirrors the seed quality test:
// the sharded engine's single-pass estimates must reach the same
// accuracy bar on the synthetic workload.
func TestEngineApproximatesBatchAccuracy(t *testing.T) {
	inst, triples := streamInstance(t, 7)
	e := ingestEngine(t, triples, 4)
	e.Refine(2)
	ds := inst.Dataset
	correct, total := 0, 0
	for o, truth := range inst.Gold {
		v, _, ok := e.Value(ds.ObjectNames[o])
		if !ok {
			continue
		}
		total++
		if v == ds.ValueNames[truth] {
			correct++
		}
	}
	if acc := float64(correct) / float64(total); acc < 0.9 {
		t.Errorf("engine accuracy = %.3f, want >= 0.9", acc)
	}
}
