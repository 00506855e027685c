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
// prior, the estimator Options and the smoothed accuracy formula. The
// sequential reference estimator the Engine is tested against, the
// Fuser, lives in fuser_test.go.
package stream

import (
	"errors"

	"slimfast/internal/mathx"
	"slimfast/internal/online"
)

// The estimator's prior: a never-seen source starts at InitAccuracy,
// the online learner's anchor, backed by PriorStrength
// pseudo-observations, so the larger the strength, the more
// observations a source needs to move its accuracy estimate. Both are
// fixed; checkpoints and cluster manifests record them, and their
// readers reject any other value.
const (
	InitAccuracy  float64 = online.InitAccuracy
	PriorStrength float64 = 4
)

// Options tunes the streaming estimator.
type Options struct {
	// Decay in (0, 1] exponentially discounts old evidence per
	// observation of a source: 1 means never forget; 0.99 tracks
	// drifting sources with an effective window of ~100 observations.
	Decay float64
}

// DefaultOptions returns settings that work across the test workloads.
func DefaultOptions() Options {
	return Options{Decay: 1}
}

// Validate reports the first invalid option. The range check is
// written so that NaN fails it.
func (o Options) Validate() error {
	if !(o.Decay > 0 && o.Decay <= 1) {
		return errors.New("stream: Decay must be in (0,1]")
	}
	return nil
}

// EstimateAccuracy is the one place the accuracy estimator lives: the
// prior-smoothed agreement ratio (InitAccuracy·PriorStrength + agree)
// / (PriorStrength + total), clamped to [0.02, 0.98] so logits stay
// bounded. The Engine (epoch refresh and Refine alike), the
// cluster router (directly and through Options.Fold) and the
// reference Fuser in fuser_test.go must all use it, or their fixed
// points drift apart.
func EstimateAccuracy(agree, total float64) float64 {
	num := InitAccuracy*PriorStrength + agree
	den := PriorStrength + total
	return mathx.Clamp(num/den, 0.02, 0.98)
}
