// Package stream implements single-pass streaming data fusion, the
// efficiency extension the paper's related-work section points at
// (Zhao, Cheng & Ng: truth discovery in data streams, CIKM 2014).
//
// The sharded Engine (engine.go) ingests claims one at a time or in
// batches and maintains, at every moment, SLiMFast-style estimates:
// per-object posteriors under the log-odds voting model of Equation 4
// and per-source accuracies anchored on posterior agreement (the same
// fixed point the batch Calibrate pass converges to). Each observation
// costs O(domain of the touched object); nothing is ever re-scanned.
// Around it sit the relational scan the query layer reads through
// (scan.go), checkpoints and restore (checkpoint.go, generations.go),
// and the epoch primitives a cluster router drives (coordinate.go).
//
// This file holds what every estimator of the model shares: the
// estimator Options and the smoothed accuracy formula. The sequential
// reference estimator the Engine is tested against, the Fuser, lives
// in fuser_test.go.
package stream

import (
	"errors"
	"math"

	"slimfast/internal/mathx"
)

// Options tunes the streaming estimator.
type Options struct {
	// InitAccuracy is the prior accuracy of a never-seen source.
	InitAccuracy float64
	// PriorStrength is the pseudo-count mass behind InitAccuracy; the
	// larger it is, the more observations a source needs to move its
	// accuracy estimate.
	PriorStrength float64
	// Decay in (0, 1] exponentially discounts old evidence per
	// observation of a source: 1 means never forget; 0.99 tracks
	// drifting sources with an effective window of ~100 observations.
	Decay float64
}

// DefaultOptions returns settings that work across the test workloads.
func DefaultOptions() Options {
	return Options{InitAccuracy: 0.7, PriorStrength: 4, Decay: 1}
}

// Validate reports the first invalid option. Each range check is
// written so that NaN fails it, and the prior strength must be finite.
func (o Options) Validate() error {
	if !(o.InitAccuracy > 0 && o.InitAccuracy < 1) {
		return errors.New("stream: InitAccuracy must be in (0,1)")
	}
	if !(o.PriorStrength >= 0) || math.IsInf(o.PriorStrength, 1) {
		return errors.New("stream: PriorStrength must be finite and non-negative")
	}
	if !(o.Decay > 0 && o.Decay <= 1) {
		return errors.New("stream: Decay must be in (0,1]")
	}
	return nil
}

// smoothedAccuracy is the one place the accuracy estimator lives: the
// prior-smoothed agreement ratio, clamped away from {0,1} so logits
// stay bounded. The Engine (epoch refresh and Refine alike), the
// cluster router (through Options.EstimateAccuracy and Fold) and the
// reference Fuser in fuser_test.go must all use it, or their fixed
// points drift apart.
func smoothedAccuracy(opts Options, agree, total float64) float64 {
	num := opts.InitAccuracy*opts.PriorStrength + agree
	den := opts.PriorStrength + total
	return mathx.Clamp(num/den, 0.02, 0.98)
}
