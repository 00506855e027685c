package stream

import (
	"fmt"
	"testing"

	"slimfast/internal/baselines"
	"slimfast/internal/data"
	"slimfast/internal/randx"
	"slimfast/internal/synth"
)

// TestEngineQualityFloorFeatureless is the quality floor of the
// streaming estimators on featureless populations whose 400 sources
// all have accuracy 0.75, eight claims per object: the Engine as
// streamed, the Engine after Refine, and the online learner (intercept
// only) as streamed must each score at least majority vote − 0.01, and
// the refined Engine must serve baselines.ACCU's MAP on at least 99%
// of objects. Two faults broke this floor: a logit(A) vote weight,
// which turns a soft source's vote negative once its agreement sinks
// below 1/2 in a domain of more than two values, and a learner trained
// on a window of drained deltas instead of the engine's mass.
func TestEngineQualityFloorFeatureless(t *testing.T) {
	sizes := []int{2000}
	if !testing.Short() && !raceEnabled { // the 20k tier takes a minute under -race
		sizes = append(sizes, 20000)
	}
	for _, objects := range sizes {
		for _, domain := range []int{2, 4, 16} {
			for _, bias := range []float64{0, 0.6} {
				t.Run(fmt.Sprintf("objects=%d/domain=%d/bias=%v", objects, domain, bias), func(t *testing.T) {
					checkQualityFloor(t, objects, domain, bias)
				})
			}
		}
	}
}

func checkQualityFloor(t *testing.T, objects, domain int, bias float64) {
	inst, err := synth.Generate(synth.Config{
		Name: "featureless", Sources: 400, Objects: objects, DomainSize: domain,
		Assignment: synth.FixedPerObject, ObsPerObject: 8,
		MeanAccuracy: 0.75, MinAccuracy: 0.05, MaxAccuracy: 0.99,
		WrongBias: bias, Seed: int64(objects + domain),
	})
	if err != nil {
		t.Fatal(err)
	}
	ds := inst.Dataset
	batch := make([]Triple, 0, ds.NumObservations())
	for _, ob := range ds.Observations {
		batch = append(batch, Triple{ds.SourceNames[ob.Source], ds.ObjectNames[ob.Object], ds.ValueNames[ob.Value]})
	}
	rng := randx.New(int64(objects))
	rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })

	mv, err := baselines.MajorityVote{}.Fuse(ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	floor := goldShare(inst, func(o data.ObjectID) string { return ds.ValueNames[mv.Values[o]] }) - 0.01
	stream := func(online bool) *Engine {
		opts := DefaultEngineOptions()
		opts.Shards = 2
		opts.OnlineLearn = online
		e, err := NewEngine(opts)
		if err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < len(batch); lo += 64 {
			e.ObserveBatch(batch[lo:min(lo+64, len(batch))])
		}
		return e
	}
	served := func(e *Engine) float64 {
		return goldShare(inst, func(o data.ObjectID) string {
			v, _, _ := e.Value(ds.ObjectNames[o])
			return v
		})
	}

	e, learner := stream(false), stream(true)
	scores := map[string]float64{"engine": served(e), "learner": served(learner)}
	e.Refine(10)
	scores["engine+refine"] = served(e)
	for who, acc := range scores {
		if acc < floor {
			t.Errorf("%s accuracy %.4f below majority vote − 0.01 = %.4f", who, acc, floor)
		}
	}

	snap, _ := e.Snapshot("refined")
	accu, err := baselines.NewACCU().Fuse(snap, nil)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for o, v := range accu.Values {
		if got, _, _ := e.Value(snap.ObjectNames[o]); got == snap.ValueNames[v] {
			same++
		}
	}
	if share := float64(same) / float64(len(accu.Values)); share < 0.99 {
		t.Errorf("refined Engine serves ACCU's MAP on %.4f of objects, want >= 0.99", share)
	}
}

// goldShare is the share of gold-labelled objects whose value, as
// named by value, is the true one.
func goldShare(inst *synth.Instance, value func(data.ObjectID) string) float64 {
	ds := inst.Dataset
	correct := 0
	for o, truth := range inst.Gold {
		if value(o) == ds.ValueNames[truth] {
			correct++
		}
	}
	return float64(correct) / float64(len(inst.Gold))
}
