// Cluster-coordination primitives: the engine-side half of the
// consistent-hash scale-out mode (internal/cluster, `slimfast
// router`). A cluster of N single-shard engines behind a router that
// partitions objects with the engine's own FNV hash is the in-process
// shard pattern lifted one level up — and these methods expose exactly
// the three shard-level moves an epoch needs, without performing the
// global fold locally:
//
//   - DrainDeltas hands the router this engine's settled evidence
//     deltas since the last drain (the shard.drain fold, by name).
//   - RefineMass hands the router one Refine sweep's exact per-source
//     posterior mass (the parts stage of Engine.Refine, by name).
//   - ApplyAccuracies installs the router's globally merged accuracy
//     table as the new frozen σ-table and bumps the epoch (with an
//     eager rescore for a Refine sweep).
//
// Each method is built from the same drainAll, refineMass and
// rescoreAll moves the engine's own refresh and Refine run, and the
// router folds merged deltas with Options.Fold — the very function
// refreshLocked calls. The router merges nodes in fixed node order,
// the same way drainAll merges shards in shard order, so the float
// accumulation order — and therefore every posterior bit — matches a
// single engine whose shards are the cluster's nodes.
package stream

import (
	"errors"
	"fmt"
	"math"
)

// ExternalEpochLength is the EpochLength sentinel for engines whose
// epochs are driven externally (cluster members): local refresh would
// need this many observations between barriers to fire, and both
// DrainDeltas and RefineMass reset the counter, so it never does. The
// value fits an int32 so checkpoints stay portable.
const ExternalEpochLength = 1<<31 - 1

// ExternalEpochs reports whether this engine defers epoch refreshes to
// an external coordinator (it was built or restored with
// EpochLength >= ExternalEpochLength).
func (e *Engine) ExternalEpochs() bool { return e.epochLen >= ExternalEpochLength }

// ShardIndex routes an object name to a partition in [0, n) — the same
// FNV-1a hash the engine's own shards use, exported so the cluster
// router partitions objects across nodes exactly as one engine with n
// shards would partition them internally.
func ShardIndex(object string, n int) int { return int(fnvHash(object)) % n }

// Fold is one source's epoch fold, the single copy shared by the
// engine's epoch refresh and the cluster router's barrier: the
// cumulative evidence (agree, total) decays by Decay^obs for the obs
// observations the epoch settled, the epoch's deltas (dAgree, dTotal)
// are added, agreement clamps at 0, and acc is the smoothed accuracy
// of the result.
func (o Options) Fold(agree, total, dAgree, dTotal float64, obs int64) (newAgree, newTotal, acc float64) {
	if o.Decay < 1 && obs > 0 {
		d := math.Pow(o.Decay, float64(obs))
		agree *= d
		total *= d
	}
	agree += dAgree
	total += dTotal
	// Under decay the settled baseline shrinks while posterior drift is
	// still measured against the undecayed settle marks, so a large
	// downward drift can overshoot; evidence mass is never negative.
	if agree < 0 {
		agree = 0
	}
	return agree, total, EstimateAccuracy(agree, total)
}

// SourceStat is one source's contribution in a coordination exchange,
// keyed by name because interned ids diverge across engines.
type SourceStat struct {
	Source       string  `json:"source"`
	Agree        float64 `json:"agree"`
	Total        float64 `json:"total"`
	Observations int64   `json:"observations,omitempty"`
}

// SourceAccuracy is one entry of a coordinator-pushed accuracy table.
type SourceAccuracy struct {
	Source   string  `json:"source"`
	Accuracy float64 `json:"accuracy"`
}

// EpochRequest is the body of the /v1/epoch/{drain,mass,apply}
// coordination exchanges. Tag is the coordinator's idempotency key for
// the exchange: a retried request with the tag of the last completed
// exchange replays its response without re-executing — draining is
// destructive, so this is what makes a barrier safe to retry after a
// lost response. Accuracies and Rescore are the apply payload.
type EpochRequest struct {
	Tag        string           `json:"tag"`
	Accuracies []SourceAccuracy `json:"accuracies,omitempty"`
	Rescore    bool             `json:"rescore,omitempty"`
}

// ErrOnlineUnsupported gates the coordination API off engines running
// the online learner: its σ-table comes from feature weights, not the
// agreement fold, so a remote coordinator cannot reproduce it.
var ErrOnlineUnsupported = errors.New("stream: cluster coordination is not supported with the online learner")

// DrainDeltas drains every shard in shard order and returns the merged
// settled-evidence deltas since the last drain, without folding them
// into this engine's own cumulative state or touching its σ-table —
// that is the coordinator's job. The per-shard delta vectors are
// zeroed and the epoch observation counter resets, exactly like the
// drain half of an epoch refresh.
func (e *Engine) DrainDeltas() ([]SourceStat, error) {
	if e.learner != nil {
		return nil, ErrOnlineUnsupported
	}
	e.refreshMu.Lock()
	defer e.refreshMu.Unlock()
	e.sinceEp.Store(0)
	agree, total, obs := e.drainAll()
	names := e.sourceNames()
	out := make([]SourceStat, len(agree))
	for i := range agree {
		out[i] = SourceStat{Source: names[i], Agree: agree[i], Total: total[i], Observations: obs[i]}
	}
	return out, nil
}

// RefineMass returns the exact per-source agreement mass one Refine
// sweep would pool (see refineMass), by name, and resets the epoch
// observation counter. The caller is expected to follow with
// ApplyAccuracies(..., rescore=true) once the cluster-wide merge is
// done.
func (e *Engine) RefineMass() ([]SourceStat, error) {
	if e.learner != nil {
		return nil, ErrOnlineUnsupported
	}
	e.refreshMu.Lock()
	defer e.refreshMu.Unlock()
	agree, total := e.refineMass()
	e.sinceEp.Store(0)
	names := e.sourceNames()
	out := make([]SourceStat, len(agree))
	for s := range agree {
		out[s] = SourceStat{Source: names[s], Agree: agree[s], Total: total[s]}
	}
	return out, nil
}

// ApplyAccuracies installs a coordinator-computed accuracy table: each
// named source's accuracy and σ = logit(accuracy) are set, unknown
// names are interned (a claim for them may arrive here later, and it
// must be scored with the global σ, exactly as it would be in a single
// engine where interning is global), and the epoch is bumped so every
// object lazily rescores on its next touch. With rescore set, every
// live object is rescored eagerly — the re-sweep half of Engine.Refine.
func (e *Engine) ApplyAccuracies(accs []SourceAccuracy, rescore bool) error {
	if e.learner != nil {
		return ErrOnlineUnsupported
	}
	for _, a := range accs {
		if a.Source == "" {
			return errors.New("stream: apply accuracies: empty source name")
		}
		if math.IsNaN(a.Accuracy) || a.Accuracy <= 0 || a.Accuracy >= 1 {
			return fmt.Errorf("stream: apply accuracies: source %q accuracy %v outside (0,1)", a.Source, a.Accuracy)
		}
	}
	e.refreshMu.Lock()
	defer e.refreshMu.Unlock()
	e.src.mu.Lock()
	for _, a := range accs {
		e.src.setAccuracy(e.internSourceLocked(a.Source), a.Accuracy)
	}
	e.src.epoch++
	epoch := e.src.epoch
	e.src.mu.Unlock()
	if rescore {
		e.rescoreAll(epoch)
	}
	return nil
}
