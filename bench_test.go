// Benchmarks regenerating every table and figure of the SLiMFast paper
// (one benchmark per artifact; run with `go test -bench=. -benchmem`),
// plus ablation benches for design choices (EM units, the agreement
// estimator, regularization) and micro-benchmarks of the core
// operations.
//
// Each experiment bench runs the same code path as `cmd/experiments
// -exp <id>` in quick mode; b.N repetitions measure end-to-end cost,
// and the rendered output goes to io.Discard. For full-scale numbers,
// run cmd/experiments without -quick.
package slimfast

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"slimfast/internal/core"
	"slimfast/internal/data"
	"slimfast/internal/eval"
	"slimfast/internal/lasso"
	"slimfast/internal/randx"
	"slimfast/internal/stream"
	"slimfast/internal/synth"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := eval.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	cfg := eval.DefaultConfig()
	cfg.Seeds, cfg.Quick = cfg.Seeds[:1], true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1(b *testing.B)   { benchExperiment(b, "table1") }
func BenchmarkFigure4a(b *testing.B) { benchExperiment(b, "fig4a") }
func BenchmarkFigure4b(b *testing.B) { benchExperiment(b, "fig4b") }
func BenchmarkFigure4c(b *testing.B) { benchExperiment(b, "fig4c") }
func BenchmarkFigure5(b *testing.B)  { benchExperiment(b, "fig5") }
func BenchmarkTable2(b *testing.B)   { benchExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B)   { benchExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B)   { benchExperiment(b, "table4") }
func BenchmarkTable5(b *testing.B)   { benchExperiment(b, "table5") }
func BenchmarkTable6(b *testing.B)   { benchExperiment(b, "table6") }
func BenchmarkFigure6(b *testing.B)  { benchExperiment(b, "fig6") }
func BenchmarkFigure7(b *testing.B)  { benchExperiment(b, "fig7") }
func BenchmarkFigure8(b *testing.B)  { benchExperiment(b, "fig8") }
func BenchmarkFigure9(b *testing.B)  { benchExperiment(b, "fig9") }
func BenchmarkTheory(b *testing.B)   { benchExperiment(b, "theory") }

// benchInstance builds a mid-size instance shared by the ablation and
// micro benches.
func benchInstance(b *testing.B) *synth.Instance {
	b.Helper()
	inst, err := synth.Generate(synth.Config{
		Name: "bench", Sources: 80, Objects: 800, DomainSize: 3,
		Assignment: synth.IIDDensity, Density: 0.15,
		MeanAccuracy: 0.68, AccuracySD: 0.12, MinAccuracy: 0.45, MaxAccuracy: 0.95,
		Features: []synth.FeatureGroup{
			{Name: "a", Cardinality: 10, Informative: true, WeightScale: 1.5},
			{Name: "b", Cardinality: 10, Informative: false},
		},
		EnsureTruthObserved: true, Seed: 17,
	})
	if err != nil {
		b.Fatal(err)
	}
	return inst
}

// --- Ablations ---

// BenchmarkAblationEMUnits compares the printed Algorithm 1 against the
// Example 8 variant that multiplies per-object gain by m.
func BenchmarkAblationEMUnits(b *testing.B) {
	inst := benchInstance(b)
	for _, mult := range []bool{false, true} {
		name := "algorithm1"
		if mult {
			name = "example8-m"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.EMUnits(inst.Dataset, 0.7, mult)
			}
		})
	}
}

// BenchmarkAblationAgreement compares the paper's closed-form average-
// accuracy estimator with the overlap-weighted variant.
func BenchmarkAblationAgreement(b *testing.B) {
	inst := benchInstance(b)
	for _, weighted := range []bool{false, true} {
		name := "paper-closed-form"
		if weighted {
			name = "overlap-weighted"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.EstimateAverageAccuracy(inst.Dataset, weighted)
			}
		})
	}
}

// BenchmarkAblationRegularization compares L2 against L1 for the
// feature-heavy ERM fit.
func BenchmarkAblationRegularization(b *testing.B) {
	inst := benchInstance(b)
	train, _ := data.Split(inst.Gold, 0.2, randx.New(2))
	run := func(b *testing.B, l1, l2 float64) {
		for i := 0; i < b.N; i++ {
			opts := core.DefaultOptions()
			opts.Optim.L1 = l1
			opts.Optim.L2 = l2
			m, err := core.Compile(inst.Dataset, opts)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := m.FitERM(train); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("l2", func(b *testing.B) { run(b, 0, 1e-3) })
	b.Run("l1", func(b *testing.B) { run(b, 1e-3, 0) })
}

// --- Micro-benchmarks of the core operations ---

func BenchmarkCoreERMFit(b *testing.B) {
	inst := benchInstance(b)
	train, _ := data.Split(inst.Gold, 0.3, randx.New(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := core.Compile(inst.Dataset, core.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.FitERM(train); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoreEMFit measures EM fitting per worker count (the E-step
// fans out; results are bit-identical across the variants). The
// stocks variant solves the Table 1 stocks simulator (~34 claims per
// object) with sequential SGD and features, from a 20% label split as
// the repository benchmark's batch-fuse workload does: EM then runs
// its full course, so the M-step's per-object gradient plan is the
// hot path.
func BenchmarkCoreEMFit(b *testing.B) {
	inst := benchInstance(b)
	run := func(b *testing.B, inst *synth.Instance, train data.TruthMap, opts core.Options) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m, err := core.Compile(inst.Dataset, opts)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := m.FitEM(train); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts := core.DefaultOptions()
			opts.Workers = workers
			run(b, inst, nil, opts)
		})
	}
	b.Run("stocks", func(b *testing.B) {
		stocks, err := synth.Stocks(1)
		if err != nil {
			b.Fatal(err)
		}
		train, _ := data.Split(stocks.Gold, 0.2, randx.New(1))
		opts := core.DefaultOptions()
		opts.Workers = 1
		run(b, stocks, train, opts)
	})
}

// BenchmarkCoreExactInference measures closed-form posterior inference
// per worker count; this path is embarrassingly parallel, so the
// speedup should track the core count.
func BenchmarkCoreExactInference(b *testing.B) {
	inst := benchInstance(b)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts := core.DefaultOptions()
			opts.Workers = workers
			m, err := core.Compile(inst.Dataset, opts)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Infer(nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStreamIngest measures the per-observation cost of streaming
// ingest into the sharded incremental engine (dense per-shard state,
// O(domain) delta updates, frozen-accuracy epochs) at one and four
// shards. The stream cycles through a fixed claim set with values
// alternating between passes, so steady-state re-claims exercise the
// delta path rather than pure no-ops. allocs/op is the headline
// number: the engine amortizes to ~0.
func BenchmarkStreamIngest(b *testing.B) {
	inst, err := synth.Generate(synth.Config{
		Name: "ingest", Sources: 80, Objects: 2000, DomainSize: 3,
		Assignment: synth.IIDDensity, Density: 0.1,
		MeanAccuracy: 0.7, AccuracySD: 0.12, MinAccuracy: 0.45, MaxAccuracy: 0.95,
		EnsureTruthObserved: true, Seed: 31,
	})
	if err != nil {
		b.Fatal(err)
	}
	ds := inst.Dataset
	type tri struct {
		s, o string
		vals [2]string // alternate value per pass to force real deltas
	}
	triples := make([]tri, 0, ds.NumObservations())
	for _, ob := range ds.Observations {
		triples = append(triples, tri{
			s: ds.SourceNames[ob.Source],
			o: ds.ObjectNames[ob.Object],
			vals: [2]string{
				ds.ValueNames[ob.Value],
				ds.ValueNames[(int(ob.Value)+1)%ds.NumValues()],
			},
		})
	}
	rng := randx.New(32)
	rng.Shuffle(len(triples), func(i, j int) { triples[i], triples[j] = triples[j], triples[i] })

	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("engine-shards=%d", shards), func(b *testing.B) {
			opts := stream.DefaultEngineOptions()
			opts.Shards = shards
			opts.Workers = 1
			e, err := stream.NewEngine(opts)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t := &triples[i%len(triples)]
				e.Observe(t.s, t.o, t.vals[(i/len(triples))%2])
			}
		})
	}
}

// BenchmarkObserveBatch is the ObserveBatch layer as the ingest
// workload drives it: one op streams 100k objects with 8 claims each
// (400 sources, 4-value domains) into a fresh engine (Shards 2,
// Workers 2) as 64-claim batches. The stream sends claim r of every
// object before claim r+1 of any, so nearly every claim after an
// object's first lands in a later epoch and takes the fused rescore.
// ns/claim is the headline. A whole stream per op keeps allocs/op (the
// objects' slabs and the index's growth) the same at any b.N.
func BenchmarkObserveBatch(b *testing.B) {
	const objects, perObject, batchLen = 100000, 8, 64
	inst, err := synth.Generate(synth.Config{
		Name: "observe-batch", Sources: 400, Objects: objects, DomainSize: 4,
		Assignment: synth.FixedPerObject, ObsPerObject: perObject,
		MeanAccuracy: 0.7, AccuracySD: 0.12, MinAccuracy: 0.45, MaxAccuracy: 0.95,
		EnsureTruthObserved: true, Seed: 43,
	})
	if err != nil {
		b.Fatal(err)
	}
	ds := inst.Dataset
	var claims []stream.Triple
	for r := 0; r < perObject; r++ {
		for o := 0; o < objects; o++ {
			if obs := ds.ObjectObservations(data.ObjectID(o)); r < len(obs) {
				claims = append(claims, stream.Triple{
					Source: ds.SourceNames[obs[r].Source],
					Object: ds.ObjectNames[obs[r].Object],
					Value:  ds.ValueNames[obs[r].Value],
				})
			}
		}
	}
	b.Run(fmt.Sprintf("batch=%d", batchLen), func(b *testing.B) {
		opts := stream.DefaultEngineOptions()
		opts.Shards = 2
		opts.Workers = 2
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e, err := stream.NewEngine(opts)
			if err != nil {
				b.Fatal(err)
			}
			for lo := 0; lo < len(claims); lo += batchLen {
				e.ObserveBatch(claims[lo:min(lo+batchLen, len(claims))])
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(claims)), "ns/claim")
	})
}

// checkpointBenchEngine is the engine the checkpoint benchmarks write
// and restore: a fixed synthetic stream of 20k objects, 400 sources and
// 8 claims per object over 4-value domains, on 4 shards with the given
// Workers, which the checkpoint records and Restore decodes with.
func checkpointBenchEngine(b *testing.B, workers int) *stream.Engine {
	b.Helper()
	inst, err := synth.Generate(synth.Config{
		Name: "restore", Sources: 400, Objects: 20000, DomainSize: 4,
		Assignment: synth.FixedPerObject, ObsPerObject: 8,
		MeanAccuracy: 0.7, AccuracySD: 0.12, MinAccuracy: 0.45, MaxAccuracy: 0.95,
		EnsureTruthObserved: true, Seed: 41,
	})
	if err != nil {
		b.Fatal(err)
	}
	ds := inst.Dataset
	claims := make([]stream.Triple, 0, ds.NumObservations())
	for _, ob := range ds.Observations {
		claims = append(claims, stream.Triple{
			Source: ds.SourceNames[ob.Source],
			Object: ds.ObjectNames[ob.Object],
			Value:  ds.ValueNames[ob.Value],
		})
	}
	opts := stream.DefaultEngineOptions()
	opts.Shards = 4
	opts.Workers = workers
	e, err := stream.NewEngine(opts)
	if err != nil {
		b.Fatal(err)
	}
	e.ObserveBatch(claims)
	return e
}

// BenchmarkCheckpointWrite measures a checkpoint of
// checkpointBenchEngine to io.Discard: the per-shard copy under the
// read lock and the encode. MB/s is over the checkpoint bytes; the
// copy allocates per shard, not per object.
func BenchmarkCheckpointWrite(b *testing.B) {
	e := checkpointBenchEngine(b, 1)
	var buf bytes.Buffer
	if err := e.WriteCheckpoint(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.WriteCheckpoint(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointRestore measures a warm restart: stream.Restore
// of an in-memory checkpoint of checkpointBenchEngine with Workers 1,
// so the shard sections decode one after another. MB/s is decode
// throughput over the checkpoint bytes; allocs/op counts blocks, not
// objects: each shard's arrays and names are carved from shared blocks.
func BenchmarkCheckpointRestore(b *testing.B) { benchRestore(b, 1) }

// BenchmarkCheckpointRestoreParallel is BenchmarkCheckpointRestore
// with Workers 4: the four shard sections decode concurrently.
func BenchmarkCheckpointRestoreParallel(b *testing.B) { benchRestore(b, 4) }

func benchRestore(b *testing.B, workers int) {
	e := checkpointBenchEngine(b, workers)
	var buf bytes.Buffer
	if err := e.WriteCheckpoint(&buf); err != nil {
		b.Fatal(err)
	}
	ckpt := buf.Bytes()
	b.SetBytes(int64(len(ckpt)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stream.Restore(bytes.NewReader(ckpt), int64(len(ckpt))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOnlineIngest measures the streaming engine with the online
// discriminative learner active: same claim cycling as
// BenchmarkStreamIngest, but every source carries a cohort feature and
// each epoch refresh retrains the minibatch logistic regression and
// rebuilds the σ-table from the feature-smoothed window. The learning
// cost amortizes over EpochLength observations, so the Observe hot
// path must stay zero-alloc (the allocs/op gate benchdiff enforces).
func BenchmarkOnlineIngest(b *testing.B) {
	inst, err := synth.Generate(synth.Config{
		Name: "online-ingest", Sources: 80, Objects: 2000, DomainSize: 3,
		Assignment: synth.IIDDensity, Density: 0.1,
		MeanAccuracy: 0.7, AccuracySD: 0.12, MinAccuracy: 0.45, MaxAccuracy: 0.95,
		Features: []synth.FeatureGroup{
			{Name: "grp", Cardinality: 8, Informative: true, WeightScale: 1.5},
		},
		EnsureTruthObserved: true, Seed: 31,
	})
	if err != nil {
		b.Fatal(err)
	}
	ds := inst.Dataset
	features := make(map[string][]string, ds.NumSources())
	for s := 0; s < ds.NumSources(); s++ {
		var labels []string
		for _, f := range ds.SourceFeatures[s] {
			labels = append(labels, ds.FeatureNames[f])
		}
		features[ds.SourceNames[s]] = labels
	}
	type tri struct {
		s, o string
		vals [2]string
	}
	triples := make([]tri, 0, ds.NumObservations())
	for _, ob := range ds.Observations {
		triples = append(triples, tri{
			s: ds.SourceNames[ob.Source],
			o: ds.ObjectNames[ob.Object],
			vals: [2]string{
				ds.ValueNames[ob.Value],
				ds.ValueNames[(int(ob.Value)+1)%ds.NumValues()],
			},
		})
	}
	rng := randx.New(32)
	rng.Shuffle(len(triples), func(i, j int) { triples[i], triples[j] = triples[j], triples[i] })

	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			opts := stream.DefaultEngineOptions()
			opts.Shards = shards
			opts.Workers = 1
			opts.Features = features
			e, err := stream.NewEngine(opts)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t := &triples[i%len(triples)]
				e.Observe(t.s, t.o, t.vals[(i/len(triples))%2])
			}
		})
	}
}

func BenchmarkOptimizerDecide(b *testing.B) {
	inst := benchInstance(b)
	train, _ := data.Split(inst.Gold, 0.1, randx.New(5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Decide(inst.Dataset, train, core.DefaultOptimizerOptions())
	}
}

func BenchmarkLassoPath(b *testing.B) {
	inst := benchInstance(b)
	opts := lasso.DefaultOptions()
	opts.Steps = 8
	opts.MaxIter = 100
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lasso.Compute(inst.Dataset, inst.Gold, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSynthGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := synth.Crowd(int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFacadeSolve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := NewProblem("bench")
		for o := 0; o < 50; o++ {
			obj := string(rune('a'+o%26)) + string(rune('0'+o/26))
			p.AddObservation("s1", obj, "x")
			p.AddObservation("s2", obj, "x")
			p.AddObservation("s3", obj, "y")
			p.SetTruth(obj, "x")
		}
		if _, err := p.Solve(WithAlgorithm(ERM), WithSeed(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationsQuality runs the registered quality-ablation
// experiment end to end.
func BenchmarkAblationsQuality(b *testing.B) { benchExperiment(b, "ablations") }
