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
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"iter"
	"math"
	"os"
	"sort"
	"strings"

	"slimfast/internal/online"
	"slimfast/internal/parallel"
	"slimfast/internal/resilience"
	"slimfast/internal/wire"
)

// The checkpoint format is v6: a sectioned wire stream. The main
// section holds the options block (whose InitAccuracy, PriorStrength
// and DedupWindow slots hold this package's constants, checked on
// restore) and the source and value tables; then comes one section per
// shard record, laid out in columns (encodeShard); the tail holds the
// online learner's state when it is on (its configuration, fixed
// values also checked, is in the options block) and the sequence-key
// ring, so a client retry that straddles a restart still
// deduplicates. A section table at the end locates the sections.
// Restore also reads v5, whose shard sections hold one record per
// slot, through a read shim kept for one release; older files fail
// with wire.ErrVersion. docs/WIRE_FORMAT.md says how to upgrade one.
const (
	checkpointMagic   = "SFCK"
	checkpointVersion = uint32(6)
	checkpointV5      = uint32(5)
)

// maxCheckpointSlots bounds the feature-row count read from the main
// section before its checksum has been verified; the feature map grows
// from at most growSlots rows as rows actually arrive, so a corrupted
// count runs into wire.ErrTruncated instead of an absurd allocation.
// Shard sections need no such bound: each count there is checked
// against the bytes left in its section before anything is sized by it.
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
	// (dangling ids, column counts that disagree, out-of-range links)
	// even though the bytes themselves parsed.
	ErrCorrupt = errors.New("stream: corrupt checkpoint")
)

// shardSnapshot is one shard's state, deep-copied under the shard's
// read lock so encoding happens with no locks held (the copy-on-read
// half of "safe concurrent with ingest"). claims, domain, scores and
// post are the live objects' arrays end to end in slot order, each
// object's a window of them: the claim and domain columns as
// encodeShard writes them.
type shardSnapshot struct {
	objs           []object
	claims         []claim
	domain         []domEntry
	scores, post   []float64
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
//
// Every live object's domain, scores and post are equally long: apply
// refreshes the posterior after any domain change, under the lock held
// here. So the domain, scores and post blocks are too, and one length
// per object describes all three.
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
	sn.claims, sn.domain, sn.scores, sn.post = claims, domain, scores, post
	return sn
}

// live yields the snapshot's live objects in slot order: one element
// of each per-object column apiece.
func (sn *shardSnapshot) live() iter.Seq[*object] {
	return func(yield func(*object) bool) {
		for ix := range sn.objs {
			if sn.objs[ix].live && !yield(&sn.objs[ix]) {
				return
			}
		}
	}
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
// one. With v5 set it reads a v5 file's block; ring is then the
// learner's window length in the file, which the learner state decode
// checks.
func decodeOptions(r *wire.Reader, v5 bool) (o EngineOptions, ring int, err error) {
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
	ring, err = online.DecodeConfig(r, v5)
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

// encodeShard writes one v6 shard section: an index tag (so Restore
// can detect reordered or mismatched records), the slots' live flags,
// the live objects in slot order as columns, and the shard-local
// accumulators. The object columns are the names blob and each name's
// end offset in it; epoch, changed, prev, next and dirty; each
// object's claim count, then the claims' src, val and settled; each
// object's domain length, then the domain's val and refs, scores and
// post. The slot, names, claim and domain columns start with their
// element count, which Restore checks against the bytes left in the
// section before it sizes anything by it; the per-object columns hold
// one element per live slot.
func encodeShard(w *wire.Writer, s int, sn *shardSnapshot) {
	w.Uint32(uint32(s))
	w.Uint32(uint32(len(sn.objs)))
	for ix := range sn.objs {
		w.Bool(sn.objs[ix].live)
	}
	nName := 0
	for o := range sn.live() {
		nName += len(o.name)
	}
	w.Uint32(uint32(nName))
	for o := range sn.live() {
		w.Blob(o.name)
	}
	end := 0
	for o := range sn.live() {
		end += len(o.name)
		w.Uint32(uint32(end))
	}
	for o := range sn.live() {
		w.Int64(o.epoch)
	}
	for o := range sn.live() {
		w.Int64(o.changed)
	}
	for o := range sn.live() {
		w.Uint32(uint32(o.prev))
	}
	for o := range sn.live() {
		w.Uint32(uint32(o.next))
	}
	for o := range sn.live() {
		w.Bool(o.dirty)
	}
	w.Uint32(uint32(len(sn.claims)))
	for o := range sn.live() {
		w.Uint32(uint32(len(o.claims)))
	}
	for _, c := range sn.claims {
		w.Uint32(uint32(c.src))
	}
	for _, c := range sn.claims {
		w.Uint32(uint32(c.val))
	}
	for _, c := range sn.claims {
		w.Float64(c.settled)
	}
	w.Uint32(uint32(len(sn.domain)))
	for o := range sn.live() {
		w.Uint32(uint32(len(o.domain)))
	}
	for _, d := range sn.domain {
		w.Uint32(uint32(d.val))
	}
	for _, d := range sn.domain {
		w.Uint32(uint32(d.refs))
	}
	for _, x := range sn.scores {
		w.Float64(x)
	}
	for _, x := range sn.post {
		w.Float64(x)
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
// The shard sections decode on up to the restored engine's Workers
// goroutines, each through its own read-ahead block; when several
// sections are damaged, the error is the lowest-numbered one's (main,
// shard 0, shard 1, …, tail).
func Restore(r io.ReaderAt, size int64) (*Engine, error) {
	v, err := wire.Version(r, checkpointMagic)
	if err != nil {
		return nil, fmt.Errorf("stream: restore: %w", err)
	}
	if v != checkpointVersion && v != checkpointV5 {
		return nil, fmt.Errorf("stream: restore: %w: checkpoint is v%d, this build reads v%d and v%d",
			wire.ErrVersion, v, checkpointV5, checkpointVersion)
	}
	return restoreSections(r, size, v == checkpointV5)
}

// restoreSections reads a checkpoint, v5 when v5 is set: the section
// table first, then the main section, the shard sections in parallel,
// and the tail, each verified against its own checksum.
func restoreSections(r io.ReaderAt, size int64, v5 bool) (*Engine, error) {
	secs, err := wire.Sections(r, size, checkpointMagic)
	if err != nil {
		return nil, fmt.Errorf("stream: restore: %w", err)
	}
	if len(secs) == 0 {
		return nil, fmt.Errorf("%w: the section table is empty", ErrShardCount)
	}
	version := checkpointVersion
	decode := decodeShard
	if v5 {
		version, decode = checkpointV5, decodeShardV5
	}
	rr, err := wire.NewReader(io.NewSectionReader(r, secs[0].Off, secs[0].Len), checkpointMagic, version)
	if err != nil {
		return nil, fmt.Errorf("stream: restore: %w", err)
	}
	e, h, err := decodeMain(rr, v5)
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
		rd := wire.NewSection(r, secs[1+s])
		if errs[s] = decode(rd, e, s); errs[s] == nil {
			if err := rd.Close(); err != nil {
				errs[s] = fmt.Errorf("stream: restore: shard %d section: %w", s, err)
			}
		}
	})
	for _, err := range errs { // shard order, whichever worker failed first
		if err != nil {
			return nil, err
		}
	}
	rd := wire.NewSection(r, secs[len(secs)-1])
	err = decodeTail(rd, e, v5, h.ring)
	if err == nil {
		err = closeSection(rd, "tail")
	}
	if err != nil {
		return nil, err
	}
	e.nObs.Store(h.nObs)
	e.sinceEp.Store(h.sinceEp)
	return e, nil
}

// closeSection verifies a section's checksum footer.
func closeSection(rr *wire.Reader, name string) error {
	if err := rr.Close(); err != nil {
		return fmt.Errorf("stream: restore: %s section: %w", name, err)
	}
	return nil
}

// restoreHead is what the main section holds besides the engine it
// builds: the counters set once every section has decoded, the shard
// record count, and a v5 file's learner window length for the tail.
type restoreHead struct {
	nObs, sinceEp int64
	nShards, ring int
}

// decodeMain reads the main section's payload — options, counters,
// the source and value tables and the shard record count — into a new
// engine.
func decodeMain(rr *wire.Reader, v5 bool) (*Engine, restoreHead, error) {
	var h restoreHead
	opts, ring, err := decodeOptions(rr, v5)
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
func decodeTail(rr *wire.Reader, e *Engine, v5 bool, ring int) error {
	nSrc := len(e.src.names)
	if e.learner != nil {
		// NewEngine built a fresh learner from the decoded config;
		// overlay the checkpointed state so training continues exactly
		// where it stopped. Structural failures are corruption, not a
		// format skew.
		if err := e.learner.DecodeState(rr, v5, ring); err != nil {
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

// Bytes per element of the claim columns (src, val, settled) and of
// the domain columns (val, refs, scores, post), which share one count.
const (
	claimBytes  = 4 + 4 + 8
	domainBytes = 4 + 4 + 8 + 8
)

// decodeShard reads one v6 shard section into e.shards[s], validating
// every id and index against the tables decoded so far.
//
// It allocates per shard, not per object. The slot, names, claim and
// domain counts are each checked against the bytes left in the section
// before anything is sized by them (wire.Reader.Count), so the slots,
// the names blob and the claim, domain, scores and post blocks are each
// allocated once, exactly, and every column decodes in one loop per
// read-ahead block (wire.Reader.Column). The per-object columns are
// read into one scratch block first, so the slots are then filled in
// one pass rather than one pass per column. Each live object's arrays
// are cap-limited windows of the blocks and its name a substring of the
// blob.
//
// It writes e.shards[s] alone and only reads the tables, so shards
// decode concurrently.
func decodeShard(rr *wire.Reader, e *Engine, s int) error {
	if err := shardTag(rr, s); err != nil {
		return err
	}
	objs := make([]object, rr.Count(1))
	nLive := 0
	ix := 0
	rr.Column(len(objs), 1, func(b []byte) {
		for _, live := range b {
			o := &objs[ix]
			ix++
			if live != 0 {
				o.live = true
				nLive++
				continue
			}
			o.mapVal = -1
			o.prev, o.next = -1, -1
		}
	})
	var names strings.Builder
	nName := rr.Count(1)
	names.Grow(nName)
	rr.AppendString(&names, nName)
	blob := names.String()
	if !rr.Fits(int64(nLive), objectBytes) {
		return fmt.Errorf("stream: restore: %w", rr.Err())
	}
	// The per-object columns, in stream order: name end offset, epoch,
	// changed, prev, next and dirty, then (after the claim count) each
	// object's claim count and (after the domain count) its domain
	// length.
	cols := make([]byte, nLive*objectBytes)
	n := nLive
	ends, epochs, changed, prevs, nexts, dirty, nClaims, nDomain :=
		cols[:4*n], cols[4*n:12*n], cols[12*n:20*n], cols[20*n:24*n], cols[24*n:28*n], cols[28*n:29*n], cols[29*n:33*n], cols[33*n:]
	readBytes(rr, cols[:29*n])

	claims := make([]claim, rr.Count(claimBytes))
	readBytes(rr, nClaims)
	if sum := lengthSum(nClaims); sum != int64(len(claims)) && rr.Fits(sum, claimBytes) {
		return corruptf("shard %d objects declare %d claims, its claim columns hold %d", s, sum, len(claims))
	}
	le := binary.LittleEndian
	k := 0
	rr.Column(len(claims), 4, func(b []byte) {
		for ; len(b) > 0; b = b[4:] {
			claims[k].src = int32(le.Uint32(b))
			k++
		}
	})
	k = 0
	rr.Column(len(claims), 4, func(b []byte) {
		for ; len(b) > 0; b = b[4:] {
			claims[k].val = int32(le.Uint32(b))
			k++
		}
	})
	k = 0
	rr.Column(len(claims), 8, func(b []byte) {
		for ; len(b) > 0; b = b[8:] {
			claims[k].settled = math.Float64frombits(le.Uint64(b))
			k++
		}
	})

	nd := rr.Count(domainBytes)
	domain := make([]domEntry, nd)
	scores := make([]float64, nd)
	post := make([]float64, nd)
	readBytes(rr, nDomain)
	if sum := lengthSum(nDomain); sum != int64(nd) && rr.Fits(sum, domainBytes) {
		return corruptf("shard %d objects declare %d domain entries, its domain columns hold %d", s, sum, nd)
	}
	k = 0
	rr.Column(nd, 4, func(b []byte) {
		for ; len(b) > 0; b = b[4:] {
			domain[k].val = int32(le.Uint32(b))
			k++
		}
	})
	k = 0
	rr.Column(nd, 4, func(b []byte) {
		for ; len(b) > 0; b = b[4:] {
			domain[k].refs = int32(le.Uint32(b))
			k++
		}
	})
	rr.AppendFloat64s(scores[:0], nd)
	rr.AppendFloat64s(post[:0], nd)
	if err := rr.Err(); err != nil {
		return fmt.Errorf("stream: restore: %w", err)
	}

	// The lengths sum to their blocks' counts, so every window fits.
	cut, lo, dlo := 0, 0, 0
	k = 0
	for ix := range objs {
		o := &objs[ix]
		if !o.live {
			continue
		}
		end := int(le.Uint32(ends[4*k:]))
		if end < cut || end > len(blob) {
			return corruptf("shard %d name offsets do not cut its %d-byte names blob in order", s, len(blob))
		}
		o.name, cut = blob[cut:end], end
		o.epoch = int64(le.Uint64(epochs[8*k:]))
		o.changed = int64(le.Uint64(changed[8*k:]))
		o.prev = int32(le.Uint32(prevs[4*k:]))
		o.next = int32(le.Uint32(nexts[4*k:]))
		o.dirty = dirty[k] != 0
		if n := int(le.Uint32(nClaims[4*k:])); n > 0 {
			o.claims = claims[lo : lo+n : lo+n]
			lo += n
		}
		if n := int(le.Uint32(nDomain[4*k:])); n > 0 {
			hi := dlo + n
			o.domain, o.scores, o.post = domain[dlo:hi:hi], scores[dlo:hi:hi], post[dlo:hi:hi]
			dlo = hi
		}
		k++
	}
	if cut != len(blob) {
		return corruptf("shard %d name offsets do not cut its %d-byte names blob in order", s, len(blob))
	}
	return finishShard(rr, e, s, objs, nLive)
}

// objectBytes is the size of a live object's elements of the
// per-object columns: name end offset 4, epoch 8, changed 8, prev 4,
// next 4, dirty 1, claim count 4 and domain length 4.
const objectBytes = 4 + 8 + 8 + 4 + 4 + 1 + 4 + 4

// readBytes reads len(dst) bytes of the section into dst.
func readBytes(rr *wire.Reader, dst []byte) {
	k := 0
	rr.Column(len(dst), 1, func(b []byte) { k += copy(dst[k:], b) })
}

// lengthSum is the sum of a per-object length column's uint32s.
func lengthSum(col []byte) (sum int64) {
	for ; len(col) >= 4; col = col[4:] {
		sum += int64(binary.LittleEndian.Uint32(col))
	}
	return sum
}

// shardTag reads a shard section's index tag, which must be s.
func shardTag(rr *wire.Reader, s int) error {
	tag := int(rr.Uint32())
	if err := rr.Err(); err != nil {
		return fmt.Errorf("stream: restore: %w", err)
	}
	if tag != s {
		return fmt.Errorf("%w: record %d is tagged shard %d", ErrShardCount, s, tag)
	}
	return nil
}

// decodeShardV5 reads one v5 shard section, whose slots are one record
// apiece, into e.shards[s]: the v5 read shim, which goes with the v5
// layout. Each live object's arrays are allocated on their own, at
// their length once it has been checked against the bytes left in the
// section.
func decodeShardV5(rr *wire.Reader, e *Engine, s int) error {
	if err := shardTag(rr, s); err != nil {
		return err
	}
	objs := make([]object, rr.Count(1))
	nLive := 0
	for ix := range objs {
		if err := rr.Err(); err != nil {
			return fmt.Errorf("stream: restore: %w", err)
		}
		obj := &objs[ix]
		if !rr.Bool() {
			obj.mapVal = -1
			obj.prev, obj.next = -1, -1
			continue
		}
		obj.live = true
		obj.name = rr.String()
		obj.epoch = rr.Int64()
		obj.changed = rr.Int64()
		obj.prev = lruLink(rr.Int())
		obj.next = lruLink(rr.Int())
		obj.dirty = rr.Bool()
		obj.claims = exact[claim](rr.Count(claimBytes))
		for i := range obj.claims {
			obj.claims[i] = claim{src: int32(rr.Uint32()), val: int32(rr.Uint32()), settled: rr.Float64()}
		}
		obj.domain = exact[domEntry](rr.Count(4))
		for i := range obj.domain {
			obj.domain[i].val = int32(rr.Uint32())
		}
		nRefs := rr.Count(4)
		for i := 0; i < nRefs; i++ {
			if r := int32(rr.Uint32()); i < len(obj.domain) {
				obj.domain[i].refs = r
			}
		}
		obj.scores = rr.Float64s()
		obj.post = rr.Float64s()
		if err := rr.Err(); err != nil {
			return fmt.Errorf("stream: restore: %w", err)
		}
		nd := len(obj.domain)
		if nRefs != nd || len(obj.scores) != nd || len(obj.post) != nd {
			return corruptf("shard %d object %q has ragged slabs: domain %d, refs %d, scores %d, post %d",
				s, obj.name, nd, nRefs, len(obj.scores), len(obj.post))
		}
		nLive++
	}
	return finishShard(rr, e, s, objs, nLive)
}

// exact returns a slice of n zero elements, nil for n == 0.
func exact[T any](n int) []T {
	if n == 0 {
		return nil
	}
	return make([]T, n)
}

// lruLink narrows a decoded v5 LRU link to the slot's int32. A value
// outside int32 maps to math.MinInt32, which the link range check
// rejects as it would have rejected the value itself.
func lruLink(v int) int32 {
	if v != int(int32(v)) {
		return math.MinInt32
	}
	return int32(v)
}

// finishShard reads the shard-local vectors and accumulators that end
// the section of shard s, then validates its decoded slots against the
// tables and those vectors, derives each live object's row cache and
// builds the object index, in one pass over the slots, into
// e.shards[s].
func finishShard(rr *wire.Reader, e *Engine, s int, objs []object, nLive int) error {
	sh := &e.shards[s]
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
	nSrc, nVals, nObjs := len(e.src.names), len(e.vals.names), len(objs)
	inRange := func(ix int) bool { return ix >= -1 && ix < nObjs }
	for _, ix := range sh.free {
		if ix < 0 || ix >= nObjs || objs[ix].live {
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
	nd := len(sh.deltaAgree)
	if len(sh.deltaTotal) != nd || len(sh.obsCount) != nd || len(sh.evictedAgree) != nd || len(sh.evictedTotal) != nd {
		return corruptf("shard %d per-source vectors are ragged: %d/%d/%d/%d/%d",
			s, nd, len(sh.deltaTotal), len(sh.obsCount), len(sh.evictedAgree), len(sh.evictedTotal))
	}
	if nd > nSrc {
		return corruptf("shard %d tracks %d sources, table has %d", s, nd, nSrc)
	}
	sh.objs = objs
	sh.nLive = nLive
	sh.index.reserve(nLive)
	for ix := range objs {
		obj := &objs[ix]
		if !inRange(int(obj.prev)) || !inRange(int(obj.next)) {
			return corruptf("shard %d object %d LRU links out of range: prev %d, next %d", s, ix, obj.prev, obj.next)
		}
		if !obj.live {
			continue
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
			// The live engine grows the per-source vectors
			// (ensureSource) before any claim by that source lands, so
			// drain() and evict() index them by claim src without
			// bounds checks. A checkpoint that breaks the invariant
			// must fail here, not panic at the next epoch refresh.
			if int(c.src) >= nd {
				return corruptf("shard %d object %q claims source id %d but tracks only %d sources", s, obj.name, c.src, nd)
			}
		}
		if obj.name == "" {
			return corruptf("shard %d slot %d is live with an empty name", s, ix)
		}
		if home := ShardIndex(obj.name, e.nShards); home != s {
			return corruptf("shard %d holds object %q, which routes to shard %d", s, obj.name, home)
		}
		h := sh.index.hash(obj.name)
		if sh.index.find(objs, obj.name, h) >= 0 {
			return corruptf("shard %d has object %q twice", s, obj.name)
		}
		sh.indexAdd(ix, h)
	}
	return nil
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
