// Durable checkpoint/restore for the sharded engine: the warm-restart
// path that turns the streaming reproduction into a long-running
// service. WriteCheckpoint serializes every shard's dense compiled
// state — interned ids, log-odds slabs, epoch σ-tables, LRU links,
// free lists, settle marks, and evicted-mass accounting — through the
// versioned, checksummed internal/wire codec, and Restore rebuilds an
// engine whose continued ingest is bit-identical to one that never
// stopped.
//
// The format captures state the engine could in principle recompute
// (cached posteriors, frozen accuracies) as well as state it could
// not (scores accumulate σ deltas across epochs), because the
// restart-determinism guarantee is about float *bits*: every
// accumulation order the live engine would have used — slab slot
// order in Refine, dirty-list order in drains, LIFO free-slot reuse —
// must survive the round trip, so all of it is written explicitly.
package stream

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"slimfast/internal/online"
	"slimfast/internal/wire"
)

// Format versions. v1 is the PR 4 layout; v2 appends the online
// discriminative-learning section — the Features table, the learner
// configuration (options block; fixed values, checked on restore,
// since the learner's hyper-parameters are constants) and the learner
// state (weights, RNG/step counters, and a window ring the learner no
// longer keeps: written empty, read and dropped) after the shard
// records. v3 adds the
// ingest idempotency state: the resolved DedupWindow in the options
// block and the sequence-key ring after the learner section, so a
// client retry that straddles a restart still deduplicates. v4 adds
// one int64 per live object — the epoch its MAP value last changed —
// so the query surface's "flipped since epoch E" survives a restart.
// Writers always emit the current version; Restore reads all four, so
// older checkpoints keep warm-booting (v3 and older restore with an
// empty dedup window and/or zeroed flip epochs).
const (
	checkpointMagic     = "SFCK"
	checkpointVersionV1 = uint32(1)
	checkpointVersionV2 = uint32(2)
	checkpointVersionV3 = uint32(3)
	checkpointVersion   = uint32(4)
)

// maxCheckpointSlots bounds slab and claim counts read from a
// checkpoint before its checksum has been verified. Decoding also
// grows those slabs as records actually arrive (growSlots at a time)
// rather than preallocating the declared count, so a corrupted
// length cannot drive an absurd allocation: on a finite stream it
// just runs into wire.ErrTruncated.
const (
	maxCheckpointSlots = 1 << 28
	growSlots          = 1 << 12
)

// maxCheckpointShards bounds the shard count a checkpoint may declare
// before the engine skeleton is built. Shard counts track CPU cores
// (default GOMAXPROCS), so 4096 is far beyond any real deployment —
// but NewEngine allocates eagerly per shard, and without this guard a
// corrupted count costs seconds of allocation before the checksum is
// ever checked.
const maxCheckpointShards = 1 << 12

// Typed restore failures, matched with errors.Is. Wire-level failures
// (wire.ErrMagic, wire.ErrVersion, wire.ErrChecksum,
// wire.ErrTruncated) pass through wrapped, so a caller can
// distinguish "not a checkpoint" from "a damaged one".
var (
	// ErrShardCount means the checkpoint's shard records do not agree
	// with its own header — the file was assembled from mismatched
	// pieces and cannot describe one consistent engine.
	ErrShardCount = errors.New("stream: checkpoint shard count mismatch")
	// ErrCorrupt means a structural invariant failed during decode
	// (dangling ids, ragged slabs, out-of-range links) even though the
	// bytes themselves parsed.
	ErrCorrupt = errors.New("stream: corrupt checkpoint")
)

// shardSnapshot is one shard's state, deep-copied under the shard's
// read lock so encoding happens with no locks held (the copy-on-read
// half of "safe concurrent with ingest").
type shardSnapshot struct {
	objs           []object
	free           []int
	dirtyIx        []int
	lruHead        int
	lruTail        int
	deltaAgree     []float64
	deltaTotal     []float64
	obsCount       []int64
	evictedAgree   []float64
	evictedTotal   []float64
	evictedObjects int64
	evictedClaims  int64
	evictedMass    float64
}

// snapshot deep-copies the shard. Dead (freelist) slots keep only
// their placeholder: their slice contents are garbage by contract and
// are not part of the format.
func (sh *shard) snapshot() shardSnapshot {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	sn := shardSnapshot{
		objs:           make([]object, len(sh.objs)),
		free:           append([]int(nil), sh.free...),
		dirtyIx:        append([]int(nil), sh.dirtyIx...),
		lruHead:        sh.lruHead,
		lruTail:        sh.lruTail,
		deltaAgree:     append([]float64(nil), sh.deltaAgree...),
		deltaTotal:     append([]float64(nil), sh.deltaTotal...),
		obsCount:       append([]int64(nil), sh.obsCount...),
		evictedAgree:   append([]float64(nil), sh.evictedAgree...),
		evictedTotal:   append([]float64(nil), sh.evictedTotal...),
		evictedObjects: sh.evictedObjects,
		evictedClaims:  sh.evictedClaims,
		evictedMass:    sh.evictedMass,
	}
	for ix := range sh.objs {
		src := &sh.objs[ix]
		dst := &sn.objs[ix]
		if !src.live {
			dst.live = false
			dst.prev, dst.next = -1, -1
			continue
		}
		*dst = *src
		dst.claims = append([]claim(nil), src.claims...)
		dst.domain = append([]int32(nil), src.domain...)
		dst.refs = append([]int32(nil), src.refs...)
		dst.scores = append([]float64(nil), src.scores...)
		dst.post = append([]float64(nil), src.post...)
	}
	return sn
}

// WriteCheckpoint serializes the engine to w. It is safe to call
// concurrently with ingest: each shard is deep-copied under its read
// lock, in shard order, with the refresh lock held so no epoch
// refresh interleaves between shard copies; encoding then runs with
// no engine locks held. A checkpoint taken while ingest is in flight
// is a consistent engine state, but only a quiescent checkpoint
// carries the bit-exact restart-determinism guarantee.
func (e *Engine) WriteCheckpoint(w io.Writer) error {
	e.refreshMu.Lock()
	snaps := make([]shardSnapshot, e.nShards)
	for s := range e.shards {
		snaps[s] = e.shards[s].snapshot()
	}
	// Tables are copied after the shards: interning precedes claim
	// insertion, so every source/value id referenced by the shard
	// copies above is covered by the (later, larger-or-equal) tables.
	e.src.mu.RLock()
	srcNames := append([]string(nil), e.src.names...)
	srcAgree := append([]float64(nil), e.src.agree...)
	srcTotal := append([]float64(nil), e.src.total...)
	srcAcc := append([]float64(nil), e.src.acc...)
	srcSigma := append([]float64(nil), e.src.sigma...)
	srcEpoch := e.src.epoch
	e.src.mu.RUnlock()
	valNames := e.valueNames()
	nObs := e.nObs.Load()
	sinceEp := e.sinceEp.Load()
	opts := e.opts
	opts.Shards = e.nShards            // pin the resolved count: GOMAXPROCS on the
	opts.EpochLength = int(e.epochLen) // restoring host must not change the layout
	opts.DedupWindow = e.seq.Size()    // pin so the restored window evicts identically
	var learnerSnap *online.Learner
	if e.learner != nil {
		// Deep-copy the learner state so encoding runs with no engine
		// locks held. Learner mutation happens under refreshMu, which
		// is held here.
		opts.OnlineLearn = true
		opts.Features = e.features
		learnerSnap = e.learner.Clone()
	}
	e.refreshMu.Unlock()
	seqKeys := e.seqSnapshot()

	bw := bufio.NewWriter(w)
	ww := wire.NewWriter(bw, checkpointMagic, checkpointVersion)
	encodeOptions(ww, opts)
	ww.Int64(nObs)
	ww.Int64(sinceEp)
	ww.Strings(srcNames)
	ww.Float64s(srcAgree)
	ww.Float64s(srcTotal)
	ww.Float64s(srcAcc)
	ww.Float64s(srcSigma)
	ww.Int64(srcEpoch)
	ww.Strings(valNames)
	ww.Uint32(uint32(len(snaps)))
	for s := range snaps {
		encodeShard(ww, s, &snaps[s])
	}
	if learnerSnap != nil {
		learnerSnap.EncodeState(ww)
	}
	ww.Strings(seqKeys)
	if err := ww.Close(); err != nil {
		return fmt.Errorf("stream: checkpoint: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("stream: checkpoint: %w", err)
	}
	return nil
}

// encodeOptions writes the EngineOptions block (resolved values, not
// the zero-means-default originals). The v2 tail carries the online
// section header: the learn switch, the resolved learner config, and
// the source-feature table (sorted by source name, so the bytes are
// deterministic regardless of map order).
func encodeOptions(w *wire.Writer, o EngineOptions) {
	w.Float64(o.InitAccuracy)
	w.Float64(o.PriorStrength)
	w.Float64(o.Decay)
	w.Int(o.Shards)
	w.Int(o.Workers)
	w.Int(o.EpochLength)
	w.Int(o.MaxObjects)
	w.Int(o.DedupWindow)
	w.Bool(o.OnlineLearn)
	if !o.OnlineLearn {
		return
	}
	online.EncodeConfig(w, o.InitAccuracy)
	names := make([]string, 0, len(o.Features))
	for name := range o.Features {
		names = append(names, name)
	}
	sort.Strings(names)
	w.Uint32(uint32(len(names)))
	for _, name := range names {
		w.String(name)
		w.Strings(o.Features[name])
	}
}

// decodeOptions reads what encodeOptions wrote. ring is the learner's
// window length in the file, which the learner state decode checks.
func decodeOptions(r *wire.Reader, version uint32) (o EngineOptions, ring int, err error) {
	o.InitAccuracy = r.Float64()
	o.PriorStrength = r.Float64()
	o.Decay = r.Float64()
	o.Shards = r.Int()
	o.Workers = r.Int()
	o.EpochLength = r.Int()
	o.MaxObjects = r.Int()
	if version >= 3 {
		o.DedupWindow = r.Int()
	}
	if version < 2 {
		return o, 0, nil
	}
	o.OnlineLearn = r.Bool()
	if !o.OnlineLearn {
		return o, 0, nil
	}
	ring, err = online.DecodeConfig(r, o.InitAccuracy)
	if err != nil {
		if r.Err() != nil {
			return o, 0, err
		}
		return o, 0, corruptf("%v", err)
	}
	nFeat := int(r.Uint32())
	if err := r.Err(); err != nil {
		return o, 0, err
	}
	if nFeat > maxCheckpointSlots {
		return o, 0, corruptf("options declare %d feature rows", nFeat)
	}
	if nFeat > 0 {
		o.Features = make(map[string][]string, min(nFeat, growSlots))
		for i := 0; i < nFeat; i++ {
			if err := r.Err(); err != nil {
				return o, 0, err
			}
			name := r.String()
			labels := r.Strings()
			if _, dup := o.Features[name]; dup {
				return o, 0, corruptf("feature table lists source %q twice", name)
			}
			o.Features[name] = labels
		}
	}
	return o, ring, r.Err()
}

// encodeShard writes one shard record: an index tag (so Restore can
// detect reordered or mismatched records), the full object slab in
// slot order, and the shard-local accumulators.
func encodeShard(w *wire.Writer, s int, sn *shardSnapshot) {
	w.Uint32(uint32(s))
	w.Uint32(uint32(len(sn.objs)))
	for ix := range sn.objs {
		obj := &sn.objs[ix]
		w.Bool(obj.live)
		if !obj.live {
			continue
		}
		w.String(obj.name)
		w.Int64(obj.epoch)
		w.Int64(obj.changed)
		w.Int(obj.prev)
		w.Int(obj.next)
		w.Bool(obj.dirty)
		w.Uint32(uint32(len(obj.claims)))
		for i := range obj.claims {
			c := &obj.claims[i]
			w.Uint32(uint32(c.src))
			w.Uint32(uint32(c.val))
			w.Float64(c.settled)
		}
		w.Int32s(obj.domain)
		w.Int32s(obj.refs)
		w.Float64s(obj.scores)
		w.Float64s(obj.post)
	}
	w.Ints(sn.free)
	w.Ints(sn.dirtyIx)
	w.Int(sn.lruHead)
	w.Int(sn.lruTail)
	w.Float64s(sn.deltaAgree)
	w.Float64s(sn.deltaTotal)
	w.Int64s(sn.obsCount)
	w.Float64s(sn.evictedAgree)
	w.Float64s(sn.evictedTotal)
	w.Int64(sn.evictedObjects)
	w.Int64(sn.evictedClaims)
	w.Float64(sn.evictedMass)
}

// corruptf builds an ErrCorrupt with positional detail.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// Restore reads a checkpoint written by WriteCheckpoint and returns a
// fresh engine positioned exactly where the checkpointed one was:
// continuing the same ingest sequence yields bit-identical
// fingerprints to an engine that never stopped. On any failure —
// truncation, checksum mismatch, version skew, shard-count mismatch,
// structural corruption — it returns a nil engine and a typed error;
// no partially-restored engine ever escapes.
func Restore(r io.Reader) (*Engine, error) {
	rr, version, err := wire.NewReaderVersions(r, checkpointMagic,
		checkpointVersionV1, checkpointVersionV2, checkpointVersionV3, checkpointVersion)
	if err != nil {
		return nil, fmt.Errorf("stream: restore: %w", err)
	}
	opts, ring, err := decodeOptions(rr, version)
	if err != nil {
		return nil, fmt.Errorf("stream: restore: %w", err)
	}
	nObs := rr.Int64()
	sinceEp := rr.Int64()
	srcNames := rr.Strings()
	srcAgree := rr.Float64s()
	srcTotal := rr.Float64s()
	srcAcc := rr.Float64s()
	srcSigma := rr.Float64s()
	srcEpoch := rr.Int64()
	valNames := rr.Strings()
	nShards := int(rr.Uint32())
	if err := rr.Err(); err != nil {
		return nil, fmt.Errorf("stream: restore: %w", err)
	}
	nSrc := len(srcNames)
	if len(srcAgree) != nSrc || len(srcTotal) != nSrc || len(srcAcc) != nSrc || len(srcSigma) != nSrc {
		return nil, corruptf("source table is ragged: %d names vs %d/%d/%d/%d stats",
			nSrc, len(srcAgree), len(srcTotal), len(srcAcc), len(srcSigma))
	}
	if nShards <= 0 || nShards != opts.Shards {
		return nil, fmt.Errorf("%w: header says %d shard records, options say %d", ErrShardCount, nShards, opts.Shards)
	}
	if nShards > maxCheckpointShards {
		return nil, corruptf("checkpoint declares %d shards, cap is %d", nShards, maxCheckpointShards)
	}

	e, err := NewEngine(opts)
	if err != nil {
		return nil, fmt.Errorf("stream: restore: %w", err)
	}
	for i, name := range srcNames {
		if _, dup := e.src.ids[name]; dup {
			return nil, corruptf("source table lists %q twice", name)
		}
		e.src.ids[name] = i
	}
	e.src.names = srcNames
	e.src.agree = srcAgree
	e.src.total = srcTotal
	e.src.acc = srcAcc
	e.src.sigma = srcSigma
	e.src.epoch = srcEpoch
	for i, name := range valNames {
		if _, dup := e.vals.ids[name]; dup {
			return nil, corruptf("value table lists %q twice", name)
		}
		e.vals.ids[name] = i
	}
	e.vals.names = valNames

	for s := 0; s < nShards; s++ {
		if err := decodeShard(rr, version, e, s, nSrc, len(valNames)); err != nil {
			return nil, err
		}
	}
	if e.learner != nil {
		// NewEngine built a fresh learner from the decoded config;
		// overlay the checkpointed state so training continues exactly
		// where it stopped. Structural failures are corruption, not a
		// format skew.
		if err := e.learner.DecodeState(rr, ring); err != nil {
			if rr.Err() != nil {
				return nil, fmt.Errorf("stream: restore: %w", rr.Err())
			}
			return nil, corruptf("online learner: %v", err)
		}
		if n := e.learner.NumSources(); n > nSrc {
			return nil, corruptf("online learner tracks %d sources, table has %d", n, nSrc)
		}
	}
	if version >= 3 {
		seqKeys := rr.Strings()
		if err := rr.Err(); err != nil {
			return nil, fmt.Errorf("stream: restore: %w", err)
		}
		if len(seqKeys) > e.seq.Size() {
			return nil, corruptf("dedup window holds %d keys, cap is %d", len(seqKeys), e.seq.Size())
		}
		for _, k := range seqKeys {
			if k == "" {
				return nil, corruptf("dedup window holds an empty key")
			}
			e.MarkSeq(k)
		}
	}
	if err := rr.Close(); err != nil {
		return nil, fmt.Errorf("stream: restore: %w", err)
	}
	e.nObs.Store(nObs)
	e.sinceEp.Store(sinceEp)
	return e, nil
}

// decodeShard reads one shard record into e.shards[s], validating
// every id and index against the tables decoded so far.
func decodeShard(rr *wire.Reader, version uint32, e *Engine, s, nSrc, nVals int) error {
	tag := int(rr.Uint32())
	nObjs := int(rr.Uint32())
	if err := rr.Err(); err != nil {
		return fmt.Errorf("stream: restore: %w", err)
	}
	if tag != s {
		return fmt.Errorf("%w: record %d is tagged shard %d", ErrShardCount, s, tag)
	}
	if nObjs > maxCheckpointSlots {
		return corruptf("shard %d declares %d object slots", s, nObjs)
	}
	sh := &e.shards[s]
	sh.objs = make([]object, 0, min(nObjs, growSlots))
	for ix := 0; ix < nObjs; ix++ {
		// Bail as soon as the stream goes bad: with a sticky read error
		// every further record decodes as zeros, and a lying nObjs must
		// not keep appending slots until the declared count is reached.
		if err := rr.Err(); err != nil {
			return fmt.Errorf("stream: restore: %w", err)
		}
		sh.objs = append(sh.objs, object{})
		obj := &sh.objs[ix]
		if !rr.Bool() {
			obj.mapIx = -1
			obj.prev, obj.next = -1, -1
			continue
		}
		obj.live = true
		obj.name = rr.String()
		obj.epoch = rr.Int64()
		if version >= checkpointVersion {
			obj.changed = rr.Int64()
		}
		obj.prev = rr.Int()
		obj.next = rr.Int()
		obj.dirty = rr.Bool()
		nClaims := int(rr.Uint32())
		if err := rr.Err(); err != nil {
			return fmt.Errorf("stream: restore: %w", err)
		}
		if nClaims > maxCheckpointSlots {
			return corruptf("shard %d object %d declares %d claims", s, ix, nClaims)
		}
		obj.claims = make([]claim, 0, min(nClaims, growSlots))
		for i := 0; i < nClaims; i++ {
			if err := rr.Err(); err != nil {
				return fmt.Errorf("stream: restore: %w", err)
			}
			obj.claims = append(obj.claims, claim{
				src:     int32(rr.Uint32()),
				val:     int32(rr.Uint32()),
				settled: rr.Float64(),
			})
		}
		obj.domain = rr.Int32s()
		obj.refs = rr.Int32s()
		obj.scores = rr.Float64s()
		obj.post = rr.Float64s()
		if err := rr.Err(); err != nil {
			return fmt.Errorf("stream: restore: %w", err)
		}
		nd := len(obj.domain)
		if len(obj.refs) != nd || len(obj.scores) != nd || len(obj.post) != nd {
			return corruptf("shard %d object %q has ragged slabs: domain %d, refs %d, scores %d, post %d",
				s, obj.name, nd, len(obj.refs), len(obj.scores), len(obj.post))
		}
		for _, v := range obj.domain {
			if int(v) < 0 || int(v) >= nVals {
				return corruptf("shard %d object %q references value id %d of %d", s, obj.name, v, nVals)
			}
		}
		// The cached MAP index is derived state: recompute it from the
		// restored posterior (pre-v4 checkpoints additionally restore
		// with changed = 0, so "flipped since E" starts fresh).
		obj.mapIx = mapIndex(obj, e.vals.names)
		for i := range obj.claims {
			c := &obj.claims[i]
			if int(c.src) < 0 || int(c.src) >= nSrc {
				return corruptf("shard %d object %q claim references source id %d of %d", s, obj.name, c.src, nSrc)
			}
			if int(c.val) < 0 || int(c.val) >= nVals {
				return corruptf("shard %d object %q claim references value id %d of %d", s, obj.name, c.val, nVals)
			}
		}
		if obj.name == "" {
			return corruptf("shard %d slot %d is live with an empty name", s, ix)
		}
		if home := ShardIndex(obj.name, e.nShards); home != s {
			return corruptf("shard %d holds object %q, which routes to shard %d", s, obj.name, home)
		}
		h := sh.index.hash(obj.name)
		if sh.index.find(sh.objs, obj.name, h) >= 0 {
			return corruptf("shard %d has object %q twice", s, obj.name)
		}
		sh.indexAdd(ix, h)
		sh.nLive++
	}
	sh.free = rr.Ints()
	sh.dirtyIx = rr.Ints()
	sh.lruHead = rr.Int()
	sh.lruTail = rr.Int()
	sh.deltaAgree = rr.Float64s()
	sh.deltaTotal = rr.Float64s()
	sh.obsCount = rr.Int64s()
	sh.evictedAgree = rr.Float64s()
	sh.evictedTotal = rr.Float64s()
	sh.evictedObjects = rr.Int64()
	sh.evictedClaims = rr.Int64()
	sh.evictedMass = rr.Float64()
	if err := rr.Err(); err != nil {
		return fmt.Errorf("stream: restore: %w", err)
	}
	inRange := func(ix int) bool { return ix >= -1 && ix < nObjs }
	for _, ix := range sh.free {
		if ix < 0 || ix >= nObjs || sh.objs[ix].live {
			return corruptf("shard %d free list entry %d is invalid", s, ix)
		}
	}
	for _, ix := range sh.dirtyIx {
		if ix < 0 || ix >= nObjs {
			return corruptf("shard %d dirty list entry %d out of range", s, ix)
		}
	}
	if !inRange(sh.lruHead) || !inRange(sh.lruTail) {
		return corruptf("shard %d LRU links out of range: head %d, tail %d", s, sh.lruHead, sh.lruTail)
	}
	for ix := range sh.objs {
		obj := &sh.objs[ix]
		if !inRange(obj.prev) || !inRange(obj.next) {
			return corruptf("shard %d object %d LRU links out of range: prev %d, next %d", s, ix, obj.prev, obj.next)
		}
	}
	nd := len(sh.deltaAgree)
	if len(sh.deltaTotal) != nd || len(sh.obsCount) != nd || len(sh.evictedAgree) != nd || len(sh.evictedTotal) != nd {
		return corruptf("shard %d per-source vectors are ragged: %d/%d/%d/%d/%d",
			s, nd, len(sh.deltaTotal), len(sh.obsCount), len(sh.evictedAgree), len(sh.evictedTotal))
	}
	if nd > nSrc {
		return corruptf("shard %d tracks %d sources, table has %d", s, nd, nSrc)
	}
	// The live engine grows the per-source vectors (ensureSource)
	// before any claim by that source lands, so drain() and evict()
	// index them by claim src without bounds checks. A checkpoint that
	// breaks the invariant must fail here, not panic at the next epoch
	// refresh.
	for ix := range sh.objs {
		obj := &sh.objs[ix]
		if !obj.live {
			continue
		}
		for i := range obj.claims {
			if int(obj.claims[i].src) >= nd {
				return corruptf("shard %d object %q claims source id %d but tracks only %d sources",
					s, obj.name, obj.claims[i].src, nd)
			}
		}
	}
	return nil
}

// WriteCheckpointFile atomically checkpoints to path: the bytes land
// in a temp file in the same directory and are renamed into place
// only after a successful sync, so a crash mid-write never clobbers
// the previous checkpoint.
func (e *Engine) WriteCheckpointFile(path string) (err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("stream: checkpoint: %w", err)
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if err = e.WriteCheckpoint(f); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return fmt.Errorf("stream: checkpoint: %w", err)
	}
	if err = f.Close(); err != nil {
		return fmt.Errorf("stream: checkpoint: %w", err)
	}
	if err = os.Rename(tmp, path); err != nil {
		return fmt.Errorf("stream: checkpoint: %w", err)
	}
	// Sync the directory too, or the rename itself may not survive a
	// power loss — the durability claim covers the directory entry,
	// not just the bytes. Strictly best-effort: filesystems that
	// refuse directory fsync (FUSE, network, overlay mounts) still
	// have a valid, fully-synced file in place, so their refusal must
	// not fail the checkpoint.
	if d, derr := os.Open(dir); derr == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// RestoreFile restores an engine from a checkpoint file.
func RestoreFile(path string) (*Engine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("stream: restore: %w", err)
	}
	defer f.Close()
	return Restore(f)
}
