package stream

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"testing"

	"slimfast/internal/core"
	"slimfast/internal/randx"
	"slimfast/internal/synth"
)

// featureStreamInstance builds a synthetic batch instance whose source
// accuracies are driven by informative domain features, shuffles it
// into a stream, and extracts the source → feature-label table the
// engine's Features option wants.
func featureStreamInstance(t testing.TB, seed int64) (*synth.Instance, [][3]string, map[string][]string) {
	t.Helper()
	inst, err := synth.Generate(synth.Config{
		Name: "online-stream", Sources: 40, Objects: 400, DomainSize: 3,
		Assignment: synth.IIDDensity, Density: 0.25,
		MeanAccuracy: 0.7, AccuracySD: 0.14, MinAccuracy: 0.45, MaxAccuracy: 0.95,
		Features: []synth.FeatureGroup{
			{Name: "grp", Cardinality: 5, Informative: true, WeightScale: 1.5},
			{Name: "noise", Cardinality: 4, Informative: false},
		},
		EnsureTruthObserved: true, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	ds := inst.Dataset
	triples := make([][3]string, 0, ds.NumObservations())
	for _, ob := range ds.Observations {
		triples = append(triples, [3]string{
			ds.SourceNames[ob.Source], ds.ObjectNames[ob.Object], ds.ValueNames[ob.Value],
		})
	}
	rng := randx.New(seed + 1)
	rng.Shuffle(len(triples), func(i, j int) { triples[i], triples[j] = triples[j], triples[i] })
	features := make(map[string][]string, ds.NumSources())
	for s := 0; s < ds.NumSources(); s++ {
		var labels []string
		for _, f := range ds.SourceFeatures[s] {
			labels = append(labels, ds.FeatureNames[f])
		}
		features[ds.SourceNames[s]] = labels
	}
	return inst, triples, features
}

// onlineOpts is the canonical feature-mode engine configuration the
// golden tests share.
func onlineOpts(features map[string][]string, workers int) EngineOptions {
	opts := DefaultEngineOptions()
	opts.Shards = 4
	opts.Workers = workers
	opts.EpochLength = 512
	opts.Features = features
	return opts
}

// ingestOnline streams the triples through a feature-mode engine with
// the canonical mixed call pattern of ingestEngine.
func ingestOnline(t testing.TB, triples [][3]string, features map[string][]string, workers int) *Engine {
	t.Helper()
	e, err := NewEngine(onlineOpts(features, workers))
	if err != nil {
		t.Fatal(err)
	}
	const chunk = 700
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

// TestGoldenOnlineMatchesBatchDiscriminativeFit is the acceptance gate
// for the online subsystem: on a frozen stream with features, the
// feature-aware engine's refined accuracies must land within tolerance
// of the batch core discriminative fit (EM + calibration over the same
// observations and feature table) — the streaming path absorbs the
// paper's feature model, not just agreement counting.
func TestGoldenOnlineMatchesBatchDiscriminativeFit(t *testing.T) {
	inst, triples, features := featureStreamInstance(t, 11)
	ds := inst.Dataset

	m, err := core.Compile(ds, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.FitEM(nil); err != nil {
		t.Fatal(err)
	}
	batchAcc := m.SourceAccuracies()

	for _, workers := range []int{1, 4} {
		e := ingestOnline(t, triples, features, workers)
		e.Refine(4)
		var sumErr, maxErr float64
		for s := 0; s < ds.NumSources(); s++ {
			d := math.Abs(e.SourceAccuracy(ds.SourceNames[s]) - batchAcc[s])
			sumErr += d
			if d > maxErr {
				maxErr = d
			}
		}
		meanErr := sumErr / float64(ds.NumSources())
		t.Logf("workers=%d: mean gap %.4f, max gap %.4f", workers, meanErr, maxErr)
		if meanErr > 0.05 {
			t.Errorf("workers=%d: mean |engine - batch| accuracy gap = %.4f, want <= 0.05", workers, meanErr)
		}
		if maxErr > 0.15 {
			t.Errorf("workers=%d: max |engine - batch| accuracy gap = %.4f, want <= 0.15", workers, maxErr)
		}

		// The learner's feature-only predictions must also track the
		// batch model's PredictAccuracy — the unseen-source contract.
		var predErr float64
		for s := 0; s < ds.NumSources(); s++ {
			labels := features[ds.SourceNames[s]]
			predErr += math.Abs(e.PredictAccuracy(labels) - m.PredictAccuracy(labels))
		}
		mean := predErr / float64(ds.NumSources())
		t.Logf("workers=%d: mean feature-prediction gap %.4f", workers, mean)
		if mean > 0.12 {
			t.Errorf("workers=%d: mean |engine - batch| feature-prediction gap = %.4f, want <= 0.12", workers, mean)
		}
	}
}

// TestGoldenOnlineDeterministicAcrossWorkers: with features and the
// learner active, every posterior and accuracy is still bit-identical
// whether one goroutine ingests or eight.
func TestGoldenOnlineDeterministicAcrossWorkers(t *testing.T) {
	_, triples, features := featureStreamInstance(t, 12)
	base := engineFingerprint(ingestOnline(t, triples, features, 1))
	for _, workers := range []int{2, 4, 8} {
		if got := engineFingerprint(ingestOnline(t, triples, features, workers)); got != base {
			t.Errorf("workers=%d fingerprint %x != workers=1 %x", workers, got, base)
		}
	}
	e1 := ingestOnline(t, triples, features, 1)
	e1.Refine(3)
	e4 := ingestOnline(t, triples, features, 4)
	e4.Refine(3)
	if a, b := engineFingerprint(e1), engineFingerprint(e4); a != b {
		t.Errorf("post-Refine fingerprints differ: %x vs %x", a, b)
	}
}

// TestGoldenOnlineCheckpointAtEveryEpochBoundary drives the v2 format
// through the restart proof: ingest epoch-length batches, checkpoint
// and restore at every epoch boundary, keep ingesting on the restored
// engine — the final fingerprint (posteriors, accuracies, and the
// learner's future behavior) must be bit-identical to never stopping,
// for one worker and four.
func TestGoldenOnlineCheckpointAtEveryEpochBoundary(t *testing.T) {
	_, triples, features := featureStreamInstance(t, 13)
	const epoch = 512
	feed := func(e *Engine, lo, hi int) {
		batch := make([]Triple, 0, epoch)
		for _, tr := range triples[lo:hi] {
			batch = append(batch, Triple{tr[0], tr[1], tr[2]})
		}
		e.ObserveBatch(batch)
	}
	for _, workers := range []int{1, 4} {
		uninterrupted, err := NewEngine(onlineOpts(features, workers))
		if err != nil {
			t.Fatal(err)
		}
		restored, err := NewEngine(onlineOpts(features, workers))
		if err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < len(triples); lo += epoch {
			hi := lo + epoch
			if hi > len(triples) {
				hi = len(triples)
			}
			feed(uninterrupted, lo, hi)
			feed(restored, lo, hi)
			// Bounce the restored engine through the v2 codec at this
			// epoch boundary.
			var buf bytes.Buffer
			if err := restored.WriteCheckpoint(&buf); err != nil {
				t.Fatal(err)
			}
			if restored, err = restoreBytes(buf.Bytes()); err != nil {
				t.Fatal(err)
			}
		}
		if a, b := engineFingerprint(uninterrupted), engineFingerprint(restored); a != b {
			t.Fatalf("workers=%d: restored-at-every-boundary fingerprint %x != uninterrupted %x", workers, a, b)
		}
		// The exact re-sweep retrains the learner; it must stay in
		// lockstep too.
		uninterrupted.Refine(2)
		restored.Refine(2)
		if a, b := engineFingerprint(uninterrupted), engineFingerprint(restored); a != b {
			t.Errorf("workers=%d: post-Refine fingerprints differ: %x vs %x", workers, a, b)
		}
		for _, src := range uninterrupted.Sources() {
			wa, wl, we, wok := uninterrupted.SourceAccuracyDetail(src)
			ga, gl, ge, gok := restored.SourceAccuracyDetail(src)
			if wok != gok || wa != ga || wl != gl || we != ge {
				t.Fatalf("workers=%d: source %s detail diverged after restore", workers, src)
			}
		}
	}
}

// TestGoldenOnlineCheckpointBytes pins the SHA-256 of the checkpoint a
// feature-mode engine writes after a fixed stream and one Refine. The
// learner section, its config block included, is part of the hash, so
// the bytes a restoring binary reads stay what every writer has
// written.
func TestGoldenOnlineCheckpointBytes(t *testing.T) {
	const want = "f7a91395903b3ff322b1b361a321c5721faa2328909f857eeefdbcd530f33fab"
	e := goldenOnlineEngine(t)
	var buf bytes.Buffer
	if err := e.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
		t.Errorf("checkpoint SHA-256 = %s, want %s", got, want)
	}
}

// goldenOnlineEngine is the engine TestGoldenOnlineCheckpointBytes
// pins.
func goldenOnlineEngine(t *testing.T) *Engine {
	t.Helper()
	_, triples, features := featureStreamInstance(t, 13)
	e := ingestOnline(t, triples, features, 2)
	e.Refine(2)
	return e
}

// TestOnlineEngineAdaptsToCohortDrift is the drift story at engine
// level: a cohort of sources sharing a feature degrades mid-stream;
// the feature-aware engine, whose evidence decays, pulls the whole
// cohort's accuracy down within a few epochs, while the cumulative
// agreement-only engine stays anchored on the long good history.
func TestOnlineEngineAdaptsToCohortDrift(t *testing.T) {
	const (
		nPer      = 4
		epochLen  = 256
		preEpochs = 8
		postEp    = 4
	)
	features := map[string][]string{}
	var sources []string
	for i := 0; i < nPer; i++ {
		good := fmt.Sprintf("steady%d", i)
		bad := fmt.Sprintf("drifty%d", i)
		features[good] = []string{"feed=alpha"}
		features[bad] = []string{"feed=beta"}
		sources = append(sources, good, bad)
	}
	mkEngine := func(online bool) *Engine {
		opts := DefaultEngineOptions()
		opts.Shards = 2
		opts.EpochLength = epochLen
		if online {
			opts.Features = features
			opts.Decay = 0.95
		}
		e, err := NewEngine(opts)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	featured, plain := mkEngine(true), mkEngine(false)
	rng := randx.New(99)
	obj := 0
	phase := func(epochs int, driftyAcc float64) {
		for n := 0; n < epochs*epochLen/(2*nPer); n++ {
			name := fmt.Sprintf("o%05d", obj)
			obj++
			truth := fmt.Sprintf("v%d", rng.Intn(3))
			wrong := fmt.Sprintf("w%d", rng.Intn(3))
			for i := 0; i < nPer; i++ {
				featured.Observe(sources[2*i], name, truth)
				plain.Observe(sources[2*i], name, truth)
				v := truth
				if !rng.Bernoulli(driftyAcc) {
					v = wrong
				}
				featured.Observe(sources[2*i+1], name, v)
				plain.Observe(sources[2*i+1], name, v)
			}
		}
	}
	phase(preEpochs, 0.95) // long good history for the beta cohort
	phase(postEp, 0.1)     // then the whole cohort goes bad

	var featErr, plainErr float64
	for i := 0; i < nPer; i++ {
		name := sources[2*i+1]
		featErr += math.Abs(featured.SourceAccuracy(name) - 0.1)
		plainErr += math.Abs(plain.SourceAccuracy(name) - 0.1)
	}
	featErr /= nPer
	plainErr /= nPer
	if featErr >= plainErr-0.05 {
		t.Errorf("feature-aware drift tracking error %.3f should beat agreement-only %.3f", featErr, plainErr)
	}
}

// TestSourceAccuracyDetailAndPredict covers the reporting accessors.
func TestSourceAccuracyDetailAndPredict(t *testing.T) {
	_, triples, features := featureStreamInstance(t, 14)
	e := ingestOnline(t, triples, features, 2)
	if !e.OnlineLearning() {
		t.Fatal("engine should report online learning")
	}
	seen := 0
	for _, src := range e.Sources() {
		acc, learned, empirical, ok := e.SourceAccuracyDetail(src)
		if !ok {
			t.Fatalf("known source %s has no detail", src)
		}
		for _, v := range []float64{acc, learned, empirical} {
			if v <= 0 || v >= 1 {
				t.Fatalf("source %s detail out of range: %v/%v/%v", src, acc, learned, empirical)
			}
		}
		seen++
	}
	if seen == 0 {
		t.Fatal("no sources seen")
	}
	if _, _, _, ok := e.SourceAccuracyDetail("never-seen"); ok {
		t.Error("unknown source should report !ok")
	}
	// A plain engine reports neither detail nor predictions.
	plain, _ := NewEngine(DefaultEngineOptions())
	if _, _, _, ok := plain.SourceAccuracyDetail("x"); ok {
		t.Error("agreement-only engine should have no detail")
	}
	if got := plain.PredictAccuracy([]string{"f"}); got != InitAccuracy {
		t.Errorf("plain PredictAccuracy = %v, want the prior", got)
	}
}
