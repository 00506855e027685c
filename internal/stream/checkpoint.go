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
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"slimfast/internal/online"
	"slimfast/internal/parallel"
	"slimfast/internal/resilience"
	"slimfast/internal/wire"
)

// The checkpoint format is v5: the v4 payload split into checksummed
// sections so Restore can decode the shards in parallel. The main
// section holds the options block (whose InitAccuracy, PriorStrength
// and DedupWindow slots hold this package's constants, checked on
// restore) and the source and value tables; then comes one section per
// shard record, each with one int64 per live object for the epoch its
// MAP value last changed; the tail holds the online learner's state
// when it is on (its configuration, fixed values also checked, is in
// the options block) and the sequence-key ring, so a client retry that
// straddles a restart still deduplicates. A section table at the end
// locates the sections. Restore also reads v4, the same payload as one
// stream with one checksum, sequentially; older files fail with
// wire.ErrVersion. docs/WIRE_FORMAT.md says how to upgrade one.
const (
	checkpointMagic   = "SFCK"
	checkpointVersion = uint32(5)
	checkpointV4      = uint32(4)
)

// maxCheckpointSlots bounds slab and claim counts read from a
// checkpoint before its checksum has been verified. Decoding also
// grows slots and arrays as records actually arrive (in chunks and
// blocks of at most growSlots) rather than preallocating the declared
// count, so a corrupted length cannot drive an absurd allocation: on a
// finite stream it just runs into wire.ErrTruncated.
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
// are not part of the format. A first pass sizes the copy, so the live
// objects' claims, domains, scores and posteriors land in four exact
// per-shard blocks, not four copies per object.
func (sh *shard) snapshot() shardSnapshot {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	var nClaims, nDomain, nScores, nPost int
	for ix := range sh.objs {
		if obj := &sh.objs[ix]; obj.live {
			nClaims += len(obj.claims)
			nDomain += len(obj.domain)
			nScores += len(obj.scores)
			nPost += len(obj.post)
		}
	}
	claims := make([]claim, 0, nClaims)
	domain := make([]domEntry, 0, nDomain)
	scores := make([]float64, 0, nScores)
	post := make([]float64, 0, nPost)
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
		dst.claims = copyInto(&claims, src.claims)
		dst.domain = copyInto(&domain, src.domain)
		dst.scores = copyInto(&scores, src.scores)
		dst.post = copyInto(&post, src.post)
	}
	return sn
}

// copyInto appends src to *blk, which the caller sized to hold it, and
// returns the cap-limited window of *blk the copy occupies.
func copyInto[T any](blk *[]T, src []T) []T {
	lo := len(*blk)
	*blk = append(*blk, src...)
	return (*blk)[lo:len(*blk):len(*blk)]
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

	ww := wire.NewWriter(w, checkpointMagic, checkpointVersion)
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
		ww.Section()
		encodeShard(ww, s, &snaps[s])
	}
	ww.Section()
	if learnerSnap != nil {
		learnerSnap.EncodeState(ww)
	}
	ww.Strings(seqKeys)
	if err := ww.Close(); err != nil {
		return fmt.Errorf("stream: checkpoint: %w", err)
	}
	return nil
}

// encodeOptions writes the EngineOptions block (resolved values, not
// the zero-means-default originals), with the package constants in the
// InitAccuracy, PriorStrength and DedupWindow slots. Its tail carries
// the online section header: the learn switch, the learner config, and
// the source-feature table (sorted by source name, so the bytes are
// deterministic regardless of map order).
func encodeOptions(w *wire.Writer, o EngineOptions) {
	w.Float64(InitAccuracy)
	w.Float64(PriorStrength)
	w.Float64(o.Decay)
	w.Int(o.Shards)
	w.Int(o.Workers)
	w.Int(o.EpochLength)
	w.Int(o.MaxObjects)
	w.Int(DedupWindow)
	w.Bool(o.OnlineLearn)
	if !o.OnlineLearn {
		return
	}
	online.EncodeConfig(w)
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

// decodeOptions reads what encodeOptions wrote and fails with
// ErrCorrupt when a fixed slot differs from this package's constant:
// no binary ever wrote another value, and this engine could not honour
// one. ring is the learner's window length in the file, which the
// learner state decode checks.
func decodeOptions(r *wire.Reader) (o EngineOptions, ring int, err error) {
	initAccuracy := r.Float64()
	prior := r.Float64()
	o.Decay = r.Float64()
	o.Shards = r.Int()
	o.Workers = r.Int()
	o.EpochLength = r.Int()
	o.MaxObjects = r.Int()
	window := r.Int()
	if err := r.Err(); err != nil {
		return o, 0, err
	}
	if initAccuracy != InitAccuracy || prior != PriorStrength || window != DedupWindow {
		return o, 0, corruptf("options record InitAccuracy %v, PriorStrength %v, DedupWindow %d; this engine's are %v, %v, %d",
			initAccuracy, prior, window, InitAccuracy, PriorStrength, DedupWindow)
	}
	o.OnlineLearn = r.Bool()
	if !o.OnlineLearn {
		return o, 0, nil
	}
	ring, err = online.DecodeConfig(r)
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
		w.Int(int(obj.prev))
		w.Int(int(obj.next))
		w.Bool(obj.dirty)
		w.Uint32(uint32(len(obj.claims)))
		for i := range obj.claims {
			c := &obj.claims[i]
			w.Uint32(uint32(c.src))
			w.Uint32(uint32(c.val))
			w.Float64(c.settled)
		}
		// The domain and refs arrays, each as Int32s writes them.
		w.Uint32(uint32(len(obj.domain)))
		for _, d := range obj.domain {
			w.Uint32(uint32(d.val))
		}
		w.Uint32(uint32(len(obj.domain)))
		for _, d := range obj.domain {
			w.Uint32(uint32(d.refs))
		}
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

// Restore reads the size-byte checkpoint r holds, written by
// WriteCheckpoint, and returns a fresh engine positioned exactly where
// the checkpointed one was: continuing the same ingest sequence yields
// bit-identical fingerprints to an engine that never stopped. On any
// failure — truncation, checksum mismatch, version skew, shard-count
// mismatch, structural corruption — it returns a nil engine and a
// typed error; no partially-restored engine ever escapes.
//
// A v5 file's shard sections decode on up to the restored engine's
// Workers goroutines, each through its own read-ahead block; when
// several sections are damaged, the error is the lowest-numbered one's
// (main, shard 0, shard 1, …, tail). A v4 file decodes sequentially.
func Restore(r io.ReaderAt, size int64) (*Engine, error) {
	v, err := wire.Version(r, checkpointMagic)
	if err != nil {
		return nil, fmt.Errorf("stream: restore: %w", err)
	}
	switch v {
	case checkpointVersion:
		return restoreSections(r, size)
	case checkpointV4:
		return restoreV4(io.NewSectionReader(r, 0, size))
	}
	return nil, fmt.Errorf("stream: restore: %w: checkpoint is v%d, this build reads v%d and v%d",
		wire.ErrVersion, v, checkpointV4, checkpointVersion)
}

// restoreSections reads a v5 checkpoint: the section table first, then
// the main section, the shard sections in parallel, and the tail, each
// verified against its own checksum.
func restoreSections(r io.ReaderAt, size int64) (*Engine, error) {
	secs, err := wire.Sections(r, size, checkpointMagic)
	if err != nil {
		return nil, fmt.Errorf("stream: restore: %w", err)
	}
	if len(secs) == 0 {
		return nil, fmt.Errorf("%w: the section table is empty", ErrShardCount)
	}
	section := func(i int) io.Reader { return io.NewSectionReader(r, secs[i].Off, secs[i].Len) }
	rr, err := wire.NewReader(section(0), checkpointMagic, checkpointVersion)
	if err != nil {
		return nil, fmt.Errorf("stream: restore: %w", err)
	}
	e, h, err := decodeMain(rr)
	if err == nil {
		err = closeSection(rr, "main")
	}
	if err != nil {
		return nil, err
	}
	if len(secs) != h.nShards+2 {
		return nil, fmt.Errorf("%w: header says %d shard records, the section table holds %d sections",
			ErrShardCount, h.nShards, len(secs))
	}
	errs := make([]error, h.nShards)
	parallel.For(h.nShards, e.opts.Workers, func(s int) {
		rd := wire.NewSection(section(1 + s))
		if errs[s] = decodeShard(rd, e, s); errs[s] == nil {
			errs[s] = closeSection(rd, fmt.Sprintf("shard %d", s))
		}
	})
	for _, err := range errs { // shard order, whichever worker failed first
		if err != nil {
			return nil, err
		}
	}
	rd := wire.NewSection(section(len(secs) - 1))
	err = decodeTail(rd, e, h.ring)
	if err == nil {
		err = closeSection(rd, "tail")
	}
	if err != nil {
		return nil, err
	}
	return h.finish(e), nil
}

// closeSection verifies a section's checksum footer.
func closeSection(rr *wire.Reader, name string) error {
	if err := rr.Close(); err != nil {
		return fmt.Errorf("stream: restore: %s section: %w", name, err)
	}
	return nil
}

// restoreV4 reads a v4 checkpoint: the section decoders one after
// another from its single stream, then its one checksum.
func restoreV4(r io.Reader) (*Engine, error) {
	rr, err := wire.NewReader(r, checkpointMagic, checkpointV4)
	if err != nil {
		return nil, fmt.Errorf("stream: restore: %w", err)
	}
	e, h, err := decodeMain(rr)
	if err != nil {
		return nil, err
	}
	for s := 0; s < h.nShards; s++ {
		if err := decodeShard(rr, e, s); err != nil {
			return nil, err
		}
	}
	if err := decodeTail(rr, e, h.ring); err != nil {
		return nil, err
	}
	if err := rr.Close(); err != nil {
		return nil, fmt.Errorf("stream: restore: %w", err)
	}
	return h.finish(e), nil
}

// restoreHead is what the main section holds besides the engine it
// builds: the counters set once every section has decoded, the shard
// record count, and the learner's window length for the tail.
type restoreHead struct {
	nObs, sinceEp int64
	nShards, ring int
}

// finish sets the counters on a fully decoded engine.
func (h restoreHead) finish(e *Engine) *Engine {
	e.nObs.Store(h.nObs)
	e.sinceEp.Store(h.sinceEp)
	return e
}

// decodeMain reads the main section's payload — options, counters,
// the source and value tables and the shard record count — into a new
// engine.
func decodeMain(rr *wire.Reader) (*Engine, restoreHead, error) {
	var h restoreHead
	opts, ring, err := decodeOptions(rr)
	if err != nil {
		return nil, h, fmt.Errorf("stream: restore: %w", err)
	}
	h.ring = ring
	h.nObs = rr.Int64()
	h.sinceEp = rr.Int64()
	srcNames := rr.Strings()
	srcAgree := rr.Float64s()
	srcTotal := rr.Float64s()
	srcAcc := rr.Float64s()
	srcSigma := rr.Float64s()
	srcEpoch := rr.Int64()
	valNames := rr.Strings()
	h.nShards = int(rr.Uint32())
	if err := rr.Err(); err != nil {
		return nil, h, fmt.Errorf("stream: restore: %w", err)
	}
	nSrc := len(srcNames)
	if len(srcAgree) != nSrc || len(srcTotal) != nSrc || len(srcAcc) != nSrc || len(srcSigma) != nSrc {
		return nil, h, corruptf("source table is ragged: %d names vs %d/%d/%d/%d stats",
			nSrc, len(srcAgree), len(srcTotal), len(srcAcc), len(srcSigma))
	}
	if h.nShards <= 0 || h.nShards != opts.Shards {
		return nil, h, fmt.Errorf("%w: header says %d shard records, options say %d", ErrShardCount, h.nShards, opts.Shards)
	}
	if h.nShards > maxCheckpointShards {
		return nil, h, corruptf("checkpoint declares %d shards, cap is %d", h.nShards, maxCheckpointShards)
	}

	e, err := NewEngine(opts)
	if err != nil {
		return nil, h, fmt.Errorf("stream: restore: %w", err)
	}
	for i, name := range srcNames {
		if _, dup := e.src.ids[name]; dup {
			return nil, h, corruptf("source table lists %q twice", name)
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
			return nil, h, corruptf("value table lists %q twice", name)
		}
		e.vals.ids[name] = i
	}
	e.vals.names = valNames
	return e, h, nil
}

// decodeTail reads the tail: the learner state, when the options block
// turned the learner on, and the sequence-key ring.
func decodeTail(rr *wire.Reader, e *Engine, ring int) error {
	nSrc := len(e.src.names)
	if e.learner != nil {
		// NewEngine built a fresh learner from the decoded config;
		// overlay the checkpointed state so training continues exactly
		// where it stopped. Structural failures are corruption, not a
		// format skew.
		if err := e.learner.DecodeState(rr, ring); err != nil {
			if rr.Err() != nil {
				return fmt.Errorf("stream: restore: %w", rr.Err())
			}
			return corruptf("online learner: %v", err)
		}
		if n := e.learner.NumSources(); n > nSrc {
			return corruptf("online learner tracks %d sources, table has %d", n, nSrc)
		}
	}
	seqKeys := rr.Strings()
	if err := rr.Err(); err != nil {
		return fmt.Errorf("stream: restore: %w", err)
	}
	if len(seqKeys) > DedupWindow {
		return corruptf("dedup window holds %d keys, cap is %d", len(seqKeys), DedupWindow)
	}
	for _, k := range seqKeys {
		if k == "" {
			return corruptf("dedup window holds an empty key")
		}
		e.MarkSeq(k)
	}
	return nil
}

// decodeShard reads one shard record into e.shards[s], validating
// every id and index against the tables decoded so far.
//
// It allocates per block of bytes, not per object. Slots arrive into
// chunks that double up to growSlots slots and are copied once into an
// exact sh.objs; a shard that fits the first chunk keeps it. Each live
// object's arrays are windows of the shard's restoreBlocks and its name
// a substring of a name block, and the object index is built in a pass
// over the copied slots, sized to the live count.
//
// It writes e.shards[s] alone and only reads the tables, so shards
// decode concurrently.
func decodeShard(rr *wire.Reader, e *Engine, s int) error {
	nSrc, nVals := len(e.src.names), len(e.vals.names)
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
	var blk restoreBlocks
	var full [][]object // filled chunks, in slot order
	chunk := make([]object, 0, min(nObjs, minBlock))
	nLive := 0
	for ix := 0; ix < nObjs; ix++ {
		// Bail as soon as the stream goes bad: with a sticky read error
		// every further record decodes as zeros, and a lying nObjs must
		// not keep appending slots until the declared count is reached.
		if err := rr.Err(); err != nil {
			return fmt.Errorf("stream: restore: %w", err)
		}
		if len(chunk) == cap(chunk) {
			full = append(full, chunk)
			chunk = make([]object, 0, min(nObjs-ix, 2*cap(chunk), growSlots))
		}
		chunk = append(chunk, object{})
		obj := &chunk[len(chunk)-1]
		if !rr.Bool() {
			obj.mapVal = -1
			obj.prev, obj.next = -1, -1
			continue
		}
		obj.live = true
		obj.name = blk.name(rr)
		obj.epoch = rr.Int64()
		obj.changed = rr.Int64()
		obj.prev = lruLink(rr.Int())
		obj.next = lruLink(rr.Int())
		obj.dirty = rr.Bool()
		nClaims := int(rr.Uint32())
		if err := rr.Err(); err != nil {
			return fmt.Errorf("stream: restore: %w", err)
		}
		if nClaims > maxCheckpointSlots {
			return corruptf("shard %d object %d declares %d claims", s, ix, nClaims)
		}
		obj.claims = window(&blk.claims, nClaims)
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
		nRefs := decodeDomain(rr, obj, &blk.domain)
		n := rr.Len()
		obj.scores = rr.AppendFloat64s(window(&blk.scores, n), n)
		n = rr.Len()
		obj.post = rr.AppendFloat64s(window(&blk.post, n), n)
		if err := rr.Err(); err != nil {
			return fmt.Errorf("stream: restore: %w", err)
		}
		nd := len(obj.domain)
		if nRefs != nd || len(obj.scores) != nd || len(obj.post) != nd {
			return corruptf("shard %d object %q has ragged slabs: domain %d, refs %d, scores %d, post %d",
				s, obj.name, nd, nRefs, len(obj.scores), len(obj.post))
		}
		for _, d := range obj.domain {
			if int(d.val) < 0 || int(d.val) >= nVals {
				return corruptf("shard %d object %q references value id %d of %d", s, obj.name, d.val, nVals)
			}
		}
		// The row cache is derived state: recompute it from the
		// restored posterior.
		obj.mapVal = -1
		obj.setRow(mapIndex(obj, e.vals.names))
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
		nLive++
	}
	sh.objs = chunk
	if len(full) > 0 {
		sh.objs = make([]object, 0, nObjs)
		for _, c := range full {
			sh.objs = append(sh.objs, c...)
		}
		sh.objs = append(sh.objs, chunk...)
	}
	sh.index.reserve(nLive)
	for ix := range sh.objs {
		obj := &sh.objs[ix]
		if !obj.live {
			continue
		}
		h := sh.index.hash(obj.name)
		if sh.index.find(sh.objs, obj.name, h) >= 0 {
			return corruptf("shard %d has object %q twice", s, obj.name)
		}
		sh.indexAdd(ix, h)
	}
	sh.nLive = nLive
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
		if !inRange(int(obj.prev)) || !inRange(int(obj.next)) {
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

// restoreBlocks are the per-shard blocks a shard's restored objects
// are carved from: each live object's claims, domain, scores and post
// are cap-limited windows of the first four, and its name a substring
// of names. A window is exactly its array's length, so the engine's
// appends (apply, ensureDomain, refreshPosterior) copy out of the
// block rather than write over a neighbour, and a reused free slot
// reslices inside its own window. A block stays reachable while any
// window or name cut from it does.
type restoreBlocks struct {
	claims []claim
	domain []domEntry
	scores []float64
	post   []float64
	names  strings.Builder
}

// Block sizes, in elements (bytes for names): a shard's first block of
// each kind holds minBlock, and each new one doubles up to growSlots
// (names: nameBlock bytes), so a small shard allocates little and a
// large one allocates once per full block. An array or name longer
// than one block is decoded on its own, from minBlock up, grown as its
// elements arrive, so a lying count never reserves more than a block.
const (
	minBlock  = 64
	nameBlock = 1 << 16
)

// window returns an empty slice with room for exactly n elements, cut
// from the free tail of *blk; a new block starts when the tail is
// short. It returns nil for n == 0.
func window[T any](blk *[]T, n int) []T {
	switch {
	case n == 0:
		return nil
	case n > growSlots:
		return make([]T, 0, minBlock)
	case cap(*blk)-len(*blk) < n:
		*blk = make([]T, 0, min(max(n, 2*cap(*blk), minBlock), growSlots))
	}
	lo := len(*blk)
	*blk = (*blk)[:lo+n]
	return (*blk)[lo : lo : lo+n]
}

// name decodes a length-prefixed object name as a substring of the
// name block; a name longer than a block gets a Builder of its own.
func (b *restoreBlocks) name(rr *wire.Reader) string {
	n := rr.Len()
	if n > nameBlock {
		var long strings.Builder
		rr.AppendString(&long, n)
		return long.String()
	}
	if b.names.Cap()-b.names.Len() < n {
		size := min(max(n, 2*b.names.Cap(), minBlock), nameBlock)
		b.names.Reset()
		b.names.Grow(size)
	}
	lo := b.names.Len()
	rr.AppendString(&b.names, n)
	return b.names.String()[lo:]
}

// decodeDomain reads an object's domain and refs arrays, as Int32s
// wrote them, straight into obj.domain's pairs, a window of the domain
// block blk. It returns the refs array's declared length for the
// caller's ragged-slab check: refs past the domain's length are read
// and dropped, and missing ones are left 0.
func decodeDomain(rr *wire.Reader, obj *object, blk *[]domEntry) (nRefs int) {
	nd := rr.Len()
	obj.domain = window(blk, nd)
	for i := 0; i < nd && rr.Err() == nil; i++ {
		obj.domain = append(obj.domain, domEntry{val: int32(rr.Uint32())})
	}
	nRefs = rr.Len()
	for i := 0; i < nRefs && rr.Err() == nil; i++ {
		r := int32(rr.Uint32())
		if i < len(obj.domain) {
			obj.domain[i].refs = r
		}
	}
	return nRefs
}

// lruLink narrows a decoded LRU link to the slot's int32. A value
// outside int32 maps to math.MinInt32, which the link range check
// rejects as it would have rejected the value itself.
func lruLink(v int) int32 {
	if v != int(int32(v)) {
		return math.MinInt32
	}
	return int32(v)
}

// WriteCheckpointFile atomically checkpoints to path: it is a
// one-generation CheckpointStore's Write, so the bytes land in a temp
// file in the same directory and are renamed into place only after a
// successful sync (a crash mid-write never clobbers the previous
// checkpoint), the directory is synced best-effort, and a stray
// path.1 left by a store with more generations is pruned.
func (e *Engine) WriteCheckpointFile(path string) error {
	return NewCheckpointStore(path, 1).Write(e)
}

// RestoreFile restores an engine from a checkpoint file.
func RestoreFile(path string) (*Engine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("stream: restore: %w", err)
	}
	defer f.Close()
	return restoreFile(f)
}

// restoreFile restores from an open checkpoint file, read at offsets
// and sized by Stat.
func restoreFile(f resilience.ReadableFile) (*Engine, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("stream: restore: %w", err)
	}
	return Restore(f, st.Size())
}
