// Streaming: fuse a live feed of claims through the sharded
// incremental engine (the single-pass regime of the paper's
// related-work section), watch the estimates sharpen as evidence
// arrives, checkpoint the engine mid-stream and prove a restored copy
// finishes with identical estimates (the warm-restart guarantee
// behind `slimfast stream -listen`), run the exact re-sweep, then
// hand the accumulated stream to the batch SLiMFast pipeline for a
// final offline refit.
//
//	go run ./examples/streaming
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"os"

	"slimfast/internal/core"
	"slimfast/internal/randx"
	"slimfast/internal/stream"
	"slimfast/internal/synth"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// Simulate a claim stream: 60 feeds reporting on 800 events in
	// random arrival order.
	inst, err := synth.Generate(synth.Config{
		Name: "feed", Sources: 60, Objects: 800, DomainSize: 3,
		Assignment: synth.IIDDensity, Density: 0.15,
		MeanAccuracy: 0.68, AccuracySD: 0.13, MinAccuracy: 0.4, MaxAccuracy: 0.95,
		EnsureTruthObserved: true, Seed: 11,
	})
	if err != nil {
		return err
	}
	ds := inst.Dataset
	arrivals := make([]stream.Triple, 0, ds.NumObservations())
	for _, ob := range ds.Observations {
		arrivals = append(arrivals, stream.Triple{
			Source: ds.SourceNames[ob.Source],
			Object: ds.ObjectNames[ob.Object],
			Value:  ds.ValueNames[ob.Value],
		})
	}
	rng := randx.New(12)
	rng.Shuffle(len(arrivals), func(i, j int) { arrivals[i], arrivals[j] = arrivals[j], arrivals[i] })

	// A 4-shard engine with a 512-observation accuracy epoch: batches
	// ingest in parallel, yet the run is bit-identical for any worker
	// count because shards only couple through the frozen σ-table.
	opts := stream.DefaultEngineOptions()
	opts.Shards = 4
	opts.Workers = 4
	opts.EpochLength = 512
	f, err := stream.NewEngine(opts)
	if err != nil {
		return err
	}
	score := func() float64 {
		correct, total := 0, 0
		for o, truth := range inst.Gold {
			v, _, ok := f.Value(ds.ObjectNames[o])
			if !ok {
				continue
			}
			total++
			if v == ds.ValueNames[truth] {
				correct++
			}
		}
		if total == 0 {
			return 0
		}
		return float64(correct) / float64(total)
	}

	fmt.Fprintln(w, "claims ingested -> accuracy on objects seen so far")
	const batch = 512
	// Halfway through the stream, checkpoint the engine and restore a
	// warm copy; both finish the ingest side by side.
	half := len(arrivals) / batch / 2 * batch
	var warm *stream.Engine
	var ckptSize int
	for lo := 0; lo < len(arrivals); lo += batch {
		hi := lo + batch
		if hi > len(arrivals) {
			hi = len(arrivals)
		}
		if lo == half {
			var ckpt bytes.Buffer
			if err := f.WriteCheckpoint(&ckpt); err != nil {
				return err
			}
			ckptSize = ckpt.Len()
			if warm, err = stream.Restore(bytes.NewReader(ckpt.Bytes()), int64(ckpt.Len())); err != nil {
				return err
			}
		}
		f.ObserveBatch(arrivals[lo:hi])
		if warm != nil {
			warm.ObserveBatch(arrivals[lo:hi])
		}
		fmt.Fprintf(w, "  %6d -> %.3f\n", hi, score())
	}
	// The restart-determinism guarantee: the restored engine lands on
	// exactly the estimates of the one that never stopped.
	est, warmEst := f.Estimates(), warm.Estimates()
	identical := len(est) == len(warmEst)
	for o, v := range est {
		if warmEst[o] != v {
			identical = false
			break
		}
	}
	fmt.Fprintf(w, "checkpoint at claim %d (%d bytes); restored run identical: %v\n",
		half, ckptSize, identical)
	f.Refine(2)
	st := f.Stats()
	fmt.Fprintf(w, "after Refine sweeps   -> %.3f  (%d shards, epoch %d)\n", score(), st.Shards, st.Epoch)

	// Offline refit: export the accumulated claims and run batch EM.
	snap, _ := f.Snapshot("snapshot")
	m, err := core.Compile(snap, core.DefaultOptions())
	if err != nil {
		return err
	}
	res, err := m.Fuse(core.AlgorithmEM, nil)
	if err != nil {
		return err
	}
	// Score the batch result against gold, matching objects by name.
	gold := map[string]string{}
	for o, truth := range inst.Gold {
		gold[ds.ObjectNames[o]] = ds.ValueNames[truth]
	}
	correct, total := 0, 0
	for o, v := range res.Values {
		if want, ok := gold[snap.ObjectNames[o]]; ok {
			total++
			if snap.ValueNames[v] == want {
				correct++
			}
		}
	}
	fmt.Fprintf(w, "batch EM refit        -> %.3f\n", float64(correct)/float64(total))
	return nil
}
