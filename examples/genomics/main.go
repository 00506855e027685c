// Genomics: the paper's motivating application at realistic scale.
// 2750 articles make sparse, conflicting claims about 571 gene-disease
// associations (~1.1 claims per article). With so little data per
// source, per-source accuracy cannot be estimated directly — SLiMFast
// pools reliability through PubMed-style metadata features and the
// optimizer picks EM for the extreme sparsity, exactly the regime the
// paper's Table 4 reports.
//
//	go run ./examples/genomics
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"slimfast/internal/core"
	"slimfast/internal/data"
	"slimfast/internal/metrics"
	"slimfast/internal/randx"
	"slimfast/internal/synth"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// The real GAD/DisGeNet data is offline; the calibrated simulator
	// matches Table 1's shape (see the internal/synth package doc).
	inst, err := synth.Genomics(42)
	if err != nil {
		return err
	}
	ds := inst.Dataset
	fmt.Fprintf(w, "corpus: %d articles, %d gene-disease pairs, %d extracted claims (density %.4f)\n",
		ds.NumSources(), ds.NumObjects(), ds.NumObservations(), ds.Density())

	// Reveal 10% of the curated labels, as a curator could afford.
	train, test := data.Split(inst.Gold, 0.10, randx.New(7))
	fmt.Fprintf(w, "curated labels: %d for training, %d held out\n\n", len(train), len(test))

	model, err := core.Compile(ds, core.DefaultOptions())
	if err != nil {
		return err
	}
	result, decision, err := model.FuseAuto(train, core.DefaultOptimizerOptions())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "optimizer chose %s (ERM units %.0f vs EM units %.0f, est. avg accuracy %.2f)\n",
		decision.Algorithm, decision.ERMUnits, decision.EMUnits, decision.AvgAccuracy)

	acc := metrics.ObjectAccuracy(result.Values, test)
	fmt.Fprintf(w, "held-out association accuracy: %.3f\n\n", acc)

	// Without features the same sparse instance is much harder —
	// the Section 5.2.1 comparison.
	plainOpts := core.DefaultOptions()
	plainOpts.UseFeatures = false
	plain, err := core.Compile(ds, plainOpts)
	if err != nil {
		return err
	}
	plainRes, err := plain.Fuse(core.AlgorithmEM, train)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "same instance without domain features: %.3f\n",
		metrics.ObjectAccuracy(plainRes.Values, test))

	// Show a few high-confidence associations a curator would review
	// first.
	fmt.Fprintln(w, "\nmost confident unlabeled associations:")
	shown := 0
	for o := 0; o < ds.NumObjects() && shown < 5; o++ {
		oid := data.ObjectID(o)
		if _, labeled := train[oid]; labeled {
			continue
		}
		v, ok := result.Values[oid]
		if !ok {
			continue
		}
		conf := result.Posterior(oid)[v]
		if conf > 0.95 {
			fmt.Fprintf(w, "  %s -> %s (%.2f)\n", ds.ObjectNames[o], ds.ValueNames[v], conf)
			shown++
		}
	}
	return nil
}
