// Drift: a cohort of sources sharing a domain feature degrades
// mid-stream, and two engines race to notice — the agreement-only
// engine (cumulative counting) against the feature-aware online engine
// (discriminative learning, internal/online, over evidence that decays
// per observation).
//
// The scenario is the paper's discriminative story run forward in
// time: "feed=beta" names a shared ingestion pipeline; when it breaks,
// every source behind it goes bad at once. The online learner sees the
// cohort's decayed agreement collapse, drags the shared feature
// weight down, and re-rates the whole cohort within a few epochs —
// including the low-traffic member the agreement-only engine barely
// re-rates at all, because its sparse new evidence drowns in its long
// good history.
//
//	go run ./examples/drift
package main

import (
	"fmt"
	"io"
	"log"
	"math"
	"os"

	"slimfast/internal/randx"
	"slimfast/internal/stream"
)

const (
	nPerCohort = 5
	epochLen   = 256
	preEpochs  = 10 // epochs of good behavior before the break
	postEpochs = 6  // epochs after the beta pipeline breaks
	domainSize = 3
	goodAcc    = 0.92
	brokenAcc  = 0.15
	// evidenceDecay is the featured engine's per-observation decay: a
	// source's evidence halves over about 14 of its own claims.
	evidenceDecay = 0.95
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// mkEngines builds the matched pair: identical estimator settings, one
// with the online learner and evidence decay, and one without either.
func mkEngines(features map[string][]string) (featured, plain *stream.Engine, err error) {
	base := stream.DefaultEngineOptions()
	base.Shards = 4
	base.EpochLength = epochLen

	opts := base
	opts.Features = features
	opts.Decay = evidenceDecay
	if featured, err = stream.NewEngine(opts); err != nil {
		return nil, nil, err
	}
	if plain, err = stream.NewEngine(base); err != nil {
		return nil, nil, err
	}
	return featured, plain, nil
}

func run(w io.Writer) error {
	// Two cohorts behind shared pipelines, plus one low-traffic member
	// of the beta cohort that reports 10× less often: the source whose
	// post-drift rating must come from its *feature*, because its own
	// recent evidence is too thin.
	features := map[string][]string{}
	var alpha, beta []string
	for i := 0; i < nPerCohort; i++ {
		a, b := fmt.Sprintf("alpha%d", i), fmt.Sprintf("beta%d", i)
		features[a] = []string{"feed=alpha"}
		features[b] = []string{"feed=beta"}
		alpha = append(alpha, a)
		beta = append(beta, b)
	}
	const rare = "beta-rare"
	features[rare] = []string{"feed=beta"}

	featured, plain, err := mkEngines(features)
	if err != nil {
		return err
	}
	rng := randx.New(7)
	obj := 0
	observe := func(source, object, value string) {
		featured.Observe(source, object, value)
		plain.Observe(source, object, value)
	}
	// One simulated event: every alpha source reports the truth with
	// goodAcc, every beta source with betaAcc; the rare beta source
	// joins one event in ten.
	event := func(betaAcc float64) {
		name := fmt.Sprintf("e%06d", obj)
		obj++
		truth := fmt.Sprintf("v%d", rng.Intn(domainSize))
		report := func(source string, acc float64) {
			v := truth
			if !rng.Bernoulli(acc) {
				v = fmt.Sprintf("x%d", rng.IntnExcept(domainSize, 0))
			}
			observe(source, name, v)
		}
		for _, s := range alpha {
			report(s, goodAcc)
		}
		for _, s := range beta {
			report(s, betaAcc)
		}
		if obj%10 == 0 {
			report(rare, betaAcc)
		}
	}
	claimsPerEvent := 2 * nPerCohort
	eventsPerEpoch := epochLen / claimsPerEvent

	trackErr := func(e *stream.Engine, trueBeta float64) float64 {
		var sum float64
		for _, s := range append(append([]string(nil), beta...), rare) {
			sum += math.Abs(e.SourceAccuracy(s) - trueBeta)
		}
		return sum / float64(nPerCohort+1)
	}

	fmt.Fprintf(w, "beta-cohort accuracy tracking error (true accuracy in brackets)\n")
	fmt.Fprintf(w, "%8s  %12s  %12s\n", "epoch", "feature-aware", "agreement-only")
	for ep := 0; ep < preEpochs; ep++ {
		for i := 0; i < eventsPerEpoch; i++ {
			event(goodAcc)
		}
	}
	fmt.Fprintf(w, "%8d  %12.3f  %12.3f   [%.2f] steady state\n",
		preEpochs, trackErr(featured, goodAcc), trackErr(plain, goodAcc), goodAcc)

	fmt.Fprintf(w, "-- feed=beta pipeline breaks: cohort accuracy %.2f -> %.2f --\n", goodAcc, brokenAcc)
	for ep := 0; ep < postEpochs; ep++ {
		for i := 0; i < eventsPerEpoch; i++ {
			event(brokenAcc)
		}
		fmt.Fprintf(w, "%8d  %12.3f  %12.3f   [%.2f]\n",
			preEpochs+ep+1, trackErr(featured, brokenAcc), trackErr(plain, brokenAcc), brokenAcc)
	}

	featErr, plainErr := trackErr(featured, brokenAcc), trackErr(plain, brokenAcc)
	fmt.Fprintf(w, "final tracking error: feature-aware %.3f vs agreement-only %.3f (lower is better)\n",
		featErr, plainErr)

	// The rare source is the discriminative punchline: almost no
	// post-drift evidence of its own, yet the shared feature re-rates
	// it. Ask both engines what they would serve for it.
	fa := featured.SourceAccuracy(rare)
	pa := plain.SourceAccuracy(rare)
	_, learned, empirical, _ := featured.SourceAccuracyDetail(rare)
	fmt.Fprintf(w, "low-traffic beta source: feature-aware %.3f (learned %.3f, empirical %.3f) vs agreement-only %.3f [true %.2f]\n",
		fa, learned, empirical, pa, brokenAcc)
	// And a source never seen at all is rated from its feature alone,
	// the serving analog of the paper's Figure 7 unseen-source curve.
	fmt.Fprintf(w, "never-seen source on feed=beta would start at %.3f (prior %.3f)\n",
		featured.PredictAccuracy([]string{"feed=beta"}), stream.InitAccuracy)
	if featErr >= plainErr {
		return fmt.Errorf("feature-aware engine did not recover faster (%.3f vs %.3f)", featErr, plainErr)
	}
	return nil
}
