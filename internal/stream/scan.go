// The relational scan surface: the engine-side half of the query
// layer (internal/query). ScanShard walks one shard's live objects
// under its read lock and hands the caller a borrowed Row per object —
// the relational view (MAP value, confidence, contestedness, flip
// epoch, claim counts) read in place from the object slots, so a
// selective query never materializes an Estimate slice. ScanShard is
// the engine's one way to turn an object slot into a row: Value is a
// point scan and EstimatesSeq collects full scans, so the live/MAP gate
// and the value-name lookup exist only here. A row reads its object's
// claims array, a separate heap block, only when the scan asks for
// Dissent or a disagree pair; every other column comes from the object
// slot alone: its name, flip epoch, claim count and row cache (the MAP
// value id, its posterior and the runner-up posterior), which the
// engine refreshes with every posterior change. Predicate pushdown
// lives one level up: the query executor decides which shards to scan
// (ShardIndex pruning on object equality), whether the scan is a point
// read through the shard's object index, whether it walks claims, and
// which rows to keep; this file only guarantees that a shard scan is
// one RLock, zero allocations, and a deterministic visit order: slot
// order, or object name order from the shard's cached name order
// (ByName), which the executor's object-ordered runs use so they need
// no sort.
package stream

import (
	"slices"
	"strings"
)

// Row is the relational view of one live object, the tuple the query
// layer filters, orders and aggregates over. Numeric counters are
// int64 so the query comparators work over exactly two scalar kinds
// (string, number). Dissent and Disagree come from a walk of the
// object's claims, which a scan makes only on request: Dissent is
// valid when the ScanOptions set Dissent or name a pair, Disagree when
// they name a pair; otherwise they read 0 and false.
type Row struct {
	Object     string  // object name
	Value      string  // current MAP value
	Confidence float64 // posterior probability of the MAP value
	Contested  float64 // 1 - (p1 - p2): complement of the top-two posterior margin
	Changed    int64   // σ-epoch the MAP value last changed (first claim counts)
	Sources    int64   // number of sources claiming this object
	Dissent    int64   // claims whose value differs from the MAP value
	Disagree   bool    // the ScanOptions pair both claim this object and differ
}

// ScanOptions selects the optional per-row work a scan performs.
type ScanOptions struct {
	// PairA/PairB are interned source ids (from SourceIDs) driving
	// Row.Disagree; -1 disables the pair check.
	PairA, PairB int
	// Point turns the scan into a point read of the object named
	// Object, resolved through the shard's index: at most one row.
	// An unknown (or evicted) name, including "", visits nothing.
	Point  bool
	Object string
	// ByName visits the live objects in ascending object-name order
	// instead of slot order. A Point scan ignores it.
	ByName bool
	// Dissent counts Row.Dissent, a walk of every visited object's
	// claims. Without it (and without a pair) the scan never touches
	// the claims arrays.
	Dissent bool
}

// NoPair is the ScanOptions zero state with the disagree pair off.
var NoPair = ScanOptions{PairA: -1, PairB: -1}

// SourceIDs resolves two source names to their interned ids for
// ScanOptions. ok is false when either source has never been seen —
// no row can have them disagreeing. Safe to call during ingest.
func (e *Engine) SourceIDs(a, b string) (ia, ib int, ok bool) {
	e.src.mu.RLock()
	defer e.src.mu.RUnlock()
	ia, okA := e.src.ids[a]
	ib, okB := e.src.ids[b]
	if !okA || !okB {
		return -1, -1, false
	}
	return ia, ib, true
}

// NumShards reports the engine's resolved shard count, the iteration
// domain for ScanShard.
func (e *Engine) NumShards() int { return e.nShards }

// ShardLen reports how many live objects shard s holds — the size of
// a full scan. Safe to call during ingest.
func (e *Engine) ShardLen(s int) int {
	sh := &e.shards[s]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.nLive
}

// CurrentEpoch reports the engine's σ-table epoch — the clock
// Row.Changed is stamped against. Safe to call during ingest.
func (e *Engine) CurrentEpoch() int64 {
	e.src.mu.RLock()
	defer e.src.mu.RUnlock()
	return e.src.epoch
}

// ScanShard visits every live object in shard s in slot order
// (deterministic for a fixed shard count) or, with ByName, in object
// name order, filling and passing one reused Row; a Point scan visits
// only the named object's slot. Returning false from visit stops the
// scan. The visit callback runs under the shard's read lock: it must
// not retain the *Row (copy it), must not block, and must not call
// back into the engine's write paths.
func (e *Engine) ScanShard(s int, opt ScanOptions, visit func(*Row) bool) {
	sh := &e.shards[s]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	valNames := e.valueNames()
	var row Row
	switch {
	case opt.Point:
		if ix := sh.slotOf(opt.Object); ix >= 0 {
			scanSlot(&sh.objs[ix], valNames, opt, &row, visit)
		}
	case opt.ByName:
		for _, ix := range sh.byName() {
			if !scanSlot(&sh.objs[ix], valNames, opt, &row, visit) {
				return
			}
		}
	default:
		for ix := range sh.objs {
			if !scanSlot(&sh.objs[ix], valNames, opt, &row, visit) {
				return
			}
		}
	}
}

// scanSlot passes one slot's row to visit, skipping freelist slots and
// objects with no MAP value yet. It reports whether the scan goes on.
func scanSlot(obj *object, valNames []string, opt ScanOptions, row *Row, visit func(*Row) bool) bool {
	if !obj.live || obj.mapVal < 0 {
		return true
	}
	fillRow(obj, valNames, opt, row)
	return visit(row)
}

// byName returns the shard's live slots sorted by object name,
// rebuilding the cached order when an insert or evict has made it
// stale. Caller holds the read lock: no writer can run until it is
// released, so the slice stays valid for the caller's scan, and
// nameMu makes concurrent readers that find the order stale rebuild
// it once.
func (sh *shard) byName() []int32 {
	sh.nameMu.Lock()
	defer sh.nameMu.Unlock()
	if !sh.nameOK {
		order := slices.Grow(sh.nameOrder[:0], len(sh.objs))
		for ix := range sh.objs {
			if sh.objs[ix].live {
				order = append(order, int32(ix))
			}
		}
		slices.SortFunc(order, func(a, b int32) int {
			return strings.Compare(sh.objs[a].name, sh.objs[b].name)
		})
		sh.nameOrder, sh.nameOK = order, true
	}
	return sh.nameOrder
}

// fillRow copies the relational view of one object into row: the
// slot's row cache, plus a walk of its claims when the options ask for
// Dissent or a pair. Caller holds the shard lock.
func fillRow(obj *object, valNames []string, opt ScanOptions, row *Row) {
	row.Object = obj.name
	row.Value = valNames[obj.mapVal]
	row.Confidence = obj.top
	row.Contested = 1 - (obj.top - obj.runner)
	row.Changed = obj.changed
	row.Sources = int64(len(obj.claims))
	row.Dissent, row.Disagree = 0, false
	if !opt.Dissent && opt.PairA < 0 {
		return
	}
	pairA, pairB := int32(-1), int32(-1)
	for i := range obj.claims {
		c := &obj.claims[i]
		if c.val != obj.mapVal {
			row.Dissent++
		}
		if opt.PairA >= 0 {
			if int(c.src) == opt.PairA {
				pairA = c.val
			} else if int(c.src) == opt.PairB {
				pairB = c.val
			}
		}
	}
	row.Disagree = pairA >= 0 && pairB >= 0 && pairA != pairB
}
