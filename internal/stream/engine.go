// The sharded streaming engine, the package's one production
// estimator, built in the compiled-layout style of internal/core. Its
// test oracle is the seed sequential Fuser in fuser_test.go.
//
// Objects are hash-partitioned across N shards. Each shard owns dense
// state for its objects — claims as (source id, value id) pairs, the
// object's value domain in first-seen order, a log-space score
// accumulator per domain value, and the cached posterior — so Observe
// is an O(claims) delta update on reused slices, not the per-call map
// rebuild the oracle Fuser does.
//
// The cross-shard coupling (source reliability) follows a
// frozen-accuracy epoch contract, the streaming analog of the σ-cache
// contract in internal/core: within an epoch every shard scores
// against the same frozen σ-table, and per-source agreement mass
// accumulates in shard-local delta vectors. Every EpochLength
// observations the engine drains the deltas in shard order (a
// deterministic ordered reduction), folds them into the global
// source state, recomputes accuracies and the σ-table, and bumps the
// epoch; shards lazily rescore an object with the fresh σ the first
// time they touch it in the new epoch, folded into that claim's own
// update (object.apply) so the claim runs one softmax. Because shards
// only communicate through the frozen table and the ordered drain,
// results are bit-identical for any Workers count (given fixed Shards
// and the same Observe/ObserveBatch call sequence).
//
// Refine is the periodic exact re-sweep: it recomputes accuracies
// from posteriors and posteriors from accuracies over all live
// objects (plus the retained mass of evicted ones), the same fixed
// point the oracle Fuser's Refine converges to.
package stream

import (
	"errors"
	"hash/maphash"
	"iter"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"slimfast/internal/data"
	"slimfast/internal/mathx"
	"slimfast/internal/online"
	"slimfast/internal/parallel"
	"slimfast/internal/resilience"
)

// EngineOptions tunes the sharded streaming engine. The embedded
// Options carry the estimator settings the oracle Fuser (fuser_test.go)
// takes too, with one semantic difference: Decay applies at epoch granularity
// (the refresh discounts a source's settled mass by Decay^k for its k
// observations that epoch), and evidence that is merely re-asserted
// decays rather than being refreshed per observation as in the Fuser.
// The two agree again after Refine, which — like the Fuser's —
// rebuilds mass from the undecayed claim set.
type EngineOptions struct {
	Options

	// Shards is the number of object partitions; <= 0 selects
	// runtime.GOMAXPROCS(0). Results are deterministic for a fixed
	// shard count; changing it reorders float accumulation (and so the
	// low bits), not the semantics.
	Shards int

	// Workers bounds the goroutines used by ObserveBatch, Refine and
	// Estimates; <= 0 selects runtime.GOMAXPROCS(0). Any value yields
	// bit-identical results for a fixed Shards.
	Workers int

	// EpochLength is the number of observations between σ-table
	// refreshes; <= 0 selects DefaultEpochLength. Shorter epochs track
	// source drift faster at the cost of more frequent drains.
	EpochLength int

	// Features assigns domain feature labels to source names (the
	// paper's f_sk indicators: "BounceRate=Low", "feed=alpha", ...).
	// A non-nil map enables online discriminative learning; sources
	// absent from the map participate with no features (intercept
	// only). The map is read at source-intern and refresh time only —
	// callers must not mutate it after NewEngine.
	Features map[string][]string

	// OnlineLearn enables the discriminative reliability learner even
	// without features (an intercept-only regression, blended with
	// each source's agreement). Implied by a non-empty Features map.
	OnlineLearn bool

	// MaxObjects bounds live per-object state: when positive, each
	// shard keeps at most ceil(MaxObjects/Shards) objects and evicts
	// the least recently observed beyond that. Evicted objects keep
	// contributing their last posterior mass to source accuracies
	// (evicted-mass accounting); their per-object state is freed and
	// Value reports them as unknown. Eviction forgets claim identity:
	// an evicted object that is observed again enters as a fresh
	// object, so its sources' earlier (retained) mass and the new
	// claims both count — under heavy evict/re-observe churn a
	// source's evidence mass reflects observation traffic rather than
	// the deduplicated (source, object) claim set an unbounded engine
	// (or the oracle Fuser) would keep. That is the memory/fidelity trade;
	// size MaxObjects above the working set where exactness matters.
	MaxObjects int

	// DedupWindow bounds the ingest idempotency window: how many
	// recent batch sequence keys (MarkSeq) the engine remembers — and
	// checkpoints, so a client retry straddling a restart still
	// collapses to exactly-once. <= 0 selects DefaultDedupWindow.
	DedupWindow int
}

// DefaultEpochLength is the σ-refresh interval used when
// EngineOptions.EpochLength is unset.
const DefaultEpochLength = 1024

// DefaultDedupWindow is the sequence-key window used when
// EngineOptions.DedupWindow is unset: large enough that a retry storm
// across a fleet of replaying clients stays deduplicated, small
// enough that the window is noise in the checkpoint.
const DefaultDedupWindow = 4096

// DefaultEngineOptions returns production defaults: DefaultOptions
// estimator settings, one shard per core, unbounded memory.
func DefaultEngineOptions() EngineOptions {
	return EngineOptions{Options: DefaultOptions()}
}

// Validate reports the first invalid option.
func (o EngineOptions) Validate() error {
	if err := o.Options.Validate(); err != nil {
		return err
	}
	if o.MaxObjects < 0 {
		return errors.New("stream: MaxObjects must be non-negative")
	}
	return nil
}

// onlineEnabled reports whether the options select the discriminative
// learner path.
func (o EngineOptions) onlineEnabled() bool {
	return o.OnlineLearn || len(o.Features) > 0
}

// Triple is one streamed claim: Source says Object has Value. Its JSON
// form is the NDJSON ingest record {"source":…,"object":…,"value":…}.
type Triple struct {
	Source string `json:"source"`
	Object string `json:"object"`
	Value  string `json:"value"`
}

// claim is one (source, value) assertion inside an object. settled is
// the posterior mass last folded into the shard's agreement deltas for
// this claim; the next drain adds post[value] - settled.
type claim struct {
	src     int32
	val     int32
	settled float64
}

// object is the dense per-object state a shard owns. Domain entries
// are never removed (slots stay for value ids seen once), but only
// entries with a live claim (refs > 0) participate in the posterior —
// matching the oracle Fuser, whose domain is always the currently claimed
// value set.
type object struct {
	name    string
	epoch   int64     // σ-table epoch the scores were computed under
	changed int64     // epoch the MAP value last changed (0 until first claim)
	claims  []claim   // one per claiming source
	domain  []int32   // global value ids, first-seen order
	refs    []int32   // live claims per domain entry
	scores  []float64 // log-odds accumulator per domain entry
	post    []float64 // cached posterior per domain entry
	mapIx   int32     // cached domain index of the MAP value, -1 = none
	dirty   bool      // true when post has drifted from settled
	live    bool      // false for freelist slots
	// Intrusive LRU links (shard-local object indices, -1 = none).
	prev, next int
}

// falseValues is ACCU's false-value term for the object's claimed
// domain: mathx.LogFalseValues of the number of entries with a live
// claim.
func (o *object) falseValues() float64 {
	k := 0
	for _, r := range o.refs {
		if r > 0 {
			k++
		}
	}
	return mathx.LogFalseValues(k)
}

// score is domain entry i's vote total, Σ ln(n·A_s/(1−A_s)) over its
// claims: the σ sum plus refs·ln n, with lnN from falseValues. It is
// the one place the posterior (refreshPosterior) and the pre-claim
// leader (leader) read a score from.
func (o *object) score(i int, lnN float64) float64 {
	return o.scores[i] + float64(o.refs[i])*lnN
}

// refreshPosterior recomputes the cached posterior in place: a stable
// softmax over the claimed (refs > 0) domain entries, zero elsewhere.
// The first pass parks each claimed entry's score in post, so the
// softmax reads every score once.
func (o *object) refreshPosterior() {
	if cap(o.post) < len(o.scores) {
		o.post = make([]float64, len(o.scores))
	}
	o.post = o.post[:len(o.scores)]
	lnN := o.falseValues()
	m := math.Inf(-1)
	for i, r := range o.refs {
		o.post[i] = 0
		if r > 0 {
			o.post[i] = o.score(i, lnN)
			if o.post[i] > m {
				m = o.post[i]
			}
		}
	}
	var sum float64
	for i, r := range o.refs {
		if r > 0 {
			sum += math.Exp(o.post[i] - m)
		}
	}
	lse := m + math.Log(sum)
	for i, r := range o.refs {
		if r > 0 {
			o.post[i] = math.Exp(o.post[i] - lse)
		}
	}
}

// shard owns a hash partition of the objects plus the shard-local
// accumulators that keep Observe free of cross-shard synchronization.
type shard struct {
	mu      sync.RWMutex
	index   objIndex // object name -> objs slot
	objs    []object
	free    []int // reusable objs slots (from eviction)
	dirtyIx []int // slots to settle at the next drain
	lruHead int
	lruTail int
	nLive   int

	// nameOrder is the live slots sorted by object name, the order a
	// ByName scan visits. It is derived state, never checkpointed:
	// indexAdd and indexDrop, the only writers of the name set, clear
	// nameOK under the write lock, and the next ByName scan rebuilds
	// the order under nameMu while it holds the read lock.
	nameMu    sync.Mutex
	nameOrder []int32
	nameOK    bool

	// Per-source accumulators since the last drain, indexed by global
	// source id (grown on demand).
	deltaAgree []float64
	deltaTotal []float64
	obsCount   []int64 // observations per source (drives decay)

	// Retained mass of evicted objects, indexed by source id. Never
	// reset: Refine rebuilds live mass from scratch on top of this.
	evictedAgree []float64
	evictedTotal []float64

	evictedObjects int64
	evictedClaims  int64
	evictedMass    float64
}

// sourceTable is the engine-global source state. ids/names intern
// source strings; agree/total are the settled (drained) evidence
// masses; acc/sigma are the frozen per-epoch estimates every shard
// scores against.
type sourceTable struct {
	mu    sync.RWMutex
	ids   map[string]int
	names []string
	agree []float64
	total []float64
	acc   []float64
	sigma []float64
	epoch int64
}

// valueTable interns value strings to global dense ids.
type valueTable struct {
	mu    sync.RWMutex
	ids   map[string]int
	names []string
}

// Engine is a sharded, concurrent, incremental streaming fusion
// engine. Observe and ObserveBatch may run concurrently with the read
// API (Value, Estimates, SourceAccuracy, Stats); determinism across
// worker counts is guaranteed for a single ingesting caller.
type Engine struct {
	opts      EngineOptions
	nShards   int
	epochLen  int64
	shardCap  int // per-shard live-object cap, 0 = unbounded
	initSigma float64

	shards []shard
	src    sourceTable
	vals   valueTable

	refreshMu sync.Mutex // serializes epoch refreshes and Refine
	nObs      atomic.Int64
	sinceEp   atomic.Int64

	// learner is the online discriminative-reliability model (nil
	// unless the options enable it). All mutation happens under
	// refreshMu; learnMu additionally guards it so the read API can
	// consult predictions while a refresh retrains. features is the
	// source-name → labels table the learner registers from.
	learner  *online.Learner
	learnMu  sync.RWMutex
	features map[string][]string

	// Ingest idempotency window of recent batch sequence keys,
	// guarded by seqMu. The window rides in the checkpoint (v3) so
	// retries that straddle a restart still deduplicate.
	seqMu sync.Mutex
	seq   *resilience.Window

	// Drain scratch, reused across refreshes (guarded by refreshMu).
	mergeAgree []float64
	mergeTotal []float64
	mergeObs   []int64

	// batchPool holds ObserveBatch's *batchScratch: concurrent batches
	// each take their own.
	batchPool sync.Pool

	// met is the optional instrumentation seam (SetMetrics); the zero
	// value is a no-op and the hot-path increments are atomic adds.
	met Metrics
}

// NewEngine returns an empty sharded engine.
func NewEngine(opts EngineOptions) (*Engine, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	n := parallel.Resolve(opts.Shards)
	e := &Engine{
		opts:     opts,
		nShards:  n,
		epochLen: int64(opts.EpochLength),
		shards:   make([]shard, n),
	}
	if e.epochLen <= 0 {
		e.epochLen = DefaultEpochLength
	}
	window := opts.DedupWindow
	if window <= 0 {
		window = DefaultDedupWindow
	}
	e.seq = resilience.NewWindow(window)
	if opts.MaxObjects > 0 {
		e.shardCap = (opts.MaxObjects + n - 1) / n
	}
	if opts.onlineEnabled() {
		e.learner = online.New(opts.InitAccuracy)
		e.features = opts.Features
	}
	e.initSigma = mathx.Logit(smoothedAccuracy(opts.Options, 0, 0))
	seed := maphash.MakeSeed()
	for i := range e.shards {
		sh := &e.shards[i]
		sh.index = objIndex{seed: seed}
		sh.lruHead, sh.lruTail = -1, -1
	}
	e.src.ids = map[string]int{}
	e.vals.ids = map[string]int{}
	return e, nil
}

// fnvHash is FNV-1a over the string bytes, inlined so the Observe hot
// path does not allocate a hasher.
func fnvHash(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// shardOf routes an object name to its shard.
func (e *Engine) shardOf(object string) *shard {
	return &e.shards[ShardIndex(object, e.nShards)]
}

// lookupSource interns the source and returns its id, its frozen σ,
// and the current epoch in one lock acquisition.
func (e *Engine) lookupSource(name string) (sid int, sigma float64, epoch int64) {
	e.src.mu.RLock()
	if id, ok := e.src.ids[name]; ok {
		sigma, epoch = e.src.sigma[id], e.src.epoch
		e.src.mu.RUnlock()
		return id, sigma, epoch
	}
	e.src.mu.RUnlock()
	e.src.mu.Lock()
	id := e.internSourceLocked(name)
	sigma, epoch = e.src.sigma[id], e.src.epoch
	e.src.mu.Unlock()
	return id, sigma, epoch
}

// internSourceLocked returns the id of a source, interning it at the
// prior accuracy when new. Caller holds src.mu for writing.
func (e *Engine) internSourceLocked(name string) int {
	id, ok := e.src.ids[name]
	if !ok {
		id = len(e.src.names)
		e.src.ids[name] = id
		e.src.names = append(e.src.names, name)
		e.src.agree = append(e.src.agree, 0)
		e.src.total = append(e.src.total, 0)
		e.src.acc = append(e.src.acc, smoothedAccuracy(e.opts.Options, 0, 0))
		e.src.sigma = append(e.src.sigma, e.initSigma)
	}
	return id
}

// setAccuracy installs a source's frozen accuracy and its σ =
// logit(accuracy). Caller holds mu for writing.
func (t *sourceTable) setAccuracy(s int, acc float64) {
	t.acc[s] = acc
	t.sigma[s] = mathx.Logit(acc)
}

// lookupValue interns the value and returns its id.
func (e *Engine) lookupValue(name string) int {
	e.vals.mu.RLock()
	if id, ok := e.vals.ids[name]; ok {
		e.vals.mu.RUnlock()
		return id
	}
	e.vals.mu.RUnlock()
	e.vals.mu.Lock()
	id, ok := e.vals.ids[name]
	if !ok {
		id = len(e.vals.names)
		e.vals.ids[name] = id
		e.vals.names = append(e.vals.names, name)
	}
	e.vals.mu.Unlock()
	return id
}

// Observe ingests one claim. Re-claiming the same (source, object)
// replaces the previous value (single-truth semantics, as in the
// oracle Fuser). Safe for concurrent use; for bit-deterministic
// results use a single ingesting goroutine or ObserveBatch.
func (e *Engine) Observe(source, objectName, value string) {
	sid, sigma, epoch := e.lookupSource(source)
	r := resolvedClaim{sid: sid, vid: e.lookupValue(value), sigma: sigma, epoch: epoch}
	sh := e.shardOf(objectName)
	sh.mu.Lock()
	valNames := e.valueNames()
	e.src.mu.RLock()
	sh.observe(e, valNames, e.src.sigma, objectName, &r)
	e.src.mu.RUnlock()
	sh.mu.Unlock()
	e.nObs.Add(1)
	e.met.Observations.Inc()
	if e.sinceEp.Add(1) >= e.epochLen {
		e.maybeRefresh()
	}
}

// resolvedClaim carries a claim's interned ids and the frozen σ it
// will be scored with, captured on the calling goroutine.
type resolvedClaim struct {
	sid   int
	vid   int
	sigma float64
	epoch int64
}

// batchScratch is ObserveBatch's per-call working set — the claim
// indices routed to each shard and the resolved claims — pooled so a
// steady ingest stream allocates nothing that grows with the batch.
type batchScratch struct {
	perShard [][]int
	res      []resolvedClaim
}

// fanOutGrain is the number of claims each ObserveBatch worker must
// get before the batch fans out over goroutines. Below it the shards
// apply on the calling goroutine: starting workers and handing them
// the shards costs more than a worker saves on a request-sized batch.
// The value is a measured crossover: on BenchmarkObserveBatch's stream
// (2 shards, 2-vCPU host) with fan-out forced at every size, two
// workers were 20% slower per claim than inline at 64-claim batches,
// 3% slower at 512, even at 576 and 5% faster at 640.
const fanOutGrain = 288

// ObserveBatch ingests a batch of claims with up to Workers
// goroutines. Sources and values are interned on the calling
// goroutine in batch order — so the dense ids (which the online
// learner's minibatch shuffle keys on) depend only on the claim
// stream, never on goroutine scheduling — then claims are partitioned
// by object shard and each shard applies its sub-sequence in batch
// order. A batch too small to give each worker fanOutGrain claims
// applies inline. The result is bit-identical for any worker count:
// the deterministic parallel ingest path.
func (e *Engine) ObserveBatch(batch []Triple) {
	if len(batch) == 0 {
		return
	}
	sc, _ := e.batchPool.Get().(*batchScratch)
	if sc == nil {
		sc = &batchScratch{perShard: make([][]int, e.nShards)}
	}
	defer e.batchPool.Put(sc)
	perShard := sc.perShard
	for s := range perShard {
		perShard[s] = perShard[s][:0]
	}
	if cap(sc.res) < len(batch) {
		sc.res = make([]resolvedClaim, len(batch))
	}
	res := sc.res[:len(batch)]
	for i := range batch {
		tr := &batch[i]
		sid, sigma, epoch := e.lookupSource(tr.Source)
		res[i] = resolvedClaim{sid: sid, vid: e.lookupValue(tr.Value), sigma: sigma, epoch: epoch}
		s := ShardIndex(tr.Object, e.nShards)
		perShard[s] = append(perShard[s], i)
	}
	if w := min(parallel.Resolve(e.opts.Workers), len(batch)/fanOutGrain); w > 1 {
		parallel.For(e.nShards, w, func(s int) { e.applyShard(s, batch, res, perShard[s]) })
	} else {
		for s := range perShard {
			e.applyShard(s, batch, res, perShard[s])
		}
	}
	e.nObs.Add(int64(len(batch)))
	e.met.Observations.Add(uint64(len(batch)))
	if e.sinceEp.Add(int64(len(batch))) >= e.epochLen {
		e.maybeRefresh()
	}
}

// applyShard applies the claims ixs of batch, all routed to shard s,
// in batch order. It takes the shard lock, one valueNames() snapshot
// and the σ-table read lock once for the whole sub-batch, in the order
// sh.mu → src.mu that every path nesting them uses. Nothing under it
// takes src.mu again: a nested read lock would deadlock against a
// waiting refresh.
func (e *Engine) applyShard(s int, batch []Triple, res []resolvedClaim, ixs []int) {
	if len(ixs) == 0 {
		return
	}
	sh := &e.shards[s]
	sh.mu.Lock()
	valNames := e.valueNames()
	e.src.mu.RLock()
	for _, i := range ixs {
		sh.observe(e, valNames, e.src.sigma, batch[i].Object, &res[i])
	}
	e.src.mu.RUnlock()
	sh.mu.Unlock()
}

// observe applies one claim to a shard-owned object: an index probe,
// then one O(claims) pass in object.apply. Caller holds sh.mu and the
// σ-table read lock, and passes a valueNames() snapshot taken under
// sh.mu and the σ-table (e.src.sigma).
func (sh *shard) observe(e *Engine, valNames []string, sigmas []float64, name string, r *resolvedClaim) {
	h := sh.index.hash(name)
	ix := sh.index.find(sh.objs, name, h)
	if ix < 0 {
		ix = sh.insert(e, name, h, r.epoch)
	}
	obj := &sh.objs[ix]
	sh.ensureSource(r.sid)
	sh.obsCount[r.sid]++
	if obj.apply(int32(r.sid), int32(r.vid), r.sigma, r.epoch, sigmas, valNames) {
		sh.deltaTotal[r.sid]++
	}
	if !obj.dirty {
		obj.dirty = true
		sh.dirtyIx = append(sh.dirtyIx, ix)
	}
	sh.lruTouch(ix)
}

// apply updates the object for source sid claiming value vid, scored
// with the claim's frozen σ, and reports whether the claim is new. The
// hot path is O(claims) with one softmax: a σ delta on the score slab,
// then the posterior and MAP refresh.
//
// The first touch of an object in a new epoch also rebuilds its scores
// against the fresh σ-table. That rebuild is folded into the claim's
// own update instead of running a softmax of its own: the score slab
// is rebuilt in the same float order, and the only thing the skipped
// softmax decided, the MAP between the rebuild and the claim (which
// stamps changed when the new σ-table alone moves the MAP), is read
// off the scores by leader. The result is bit-identical to rescoring
// first and then applying the claim.
func (o *object) apply(sid, vid int32, sigma float64, epoch int64, sigmas []float64, valNames []string) (added bool) {
	ci := -1
	for i := range o.claims {
		if o.claims[i].src == sid {
			ci = i
			break
		}
	}
	same := ci >= 0 && o.claims[ci].val == vid
	if o.epoch != epoch {
		if same {
			// Re-asserted: the rescore is the only change.
			o.rescore(sigmas, valNames, epoch)
			return false
		}
		o.rebuildScores(sigmas)
		o.epoch = epoch
		o.noteLeader(valNames, epoch)
	}
	switch {
	case same:
		// Same claim re-asserted: scores and posterior are unchanged.
		return false
	case ci >= 0:
		// The source changed its mind: move its σ between values.
		old := o.domainIndex(o.claims[ci].val)
		o.scores[old] -= sigma
		o.refs[old]--
		nw := o.ensureDomain(vid)
		o.scores[nw] += sigma
		o.refs[nw]++
		o.claims[ci].val = vid
	default:
		o.claims = append(o.claims, claim{src: sid, val: vid})
		nw := o.ensureDomain(vid)
		o.scores[nw] += sigma
		o.refs[nw]++
		added = true
	}
	o.refreshPosterior()
	o.noteMAP(valNames, epoch)
	return added
}

// domainIndex returns the slab index of value v (present by
// construction).
func (o *object) domainIndex(v int32) int {
	for i, d := range o.domain {
		if d == v {
			return i
		}
	}
	panic("stream: value not in object domain")
}

// ensureDomain returns the slab index of v, appending a new domain
// entry when v is first claimed for this object.
func (o *object) ensureDomain(v int32) int {
	for i, d := range o.domain {
		if d == v {
			return i
		}
	}
	o.domain = append(o.domain, v)
	o.refs = append(o.refs, 0)
	o.scores = append(o.scores, 0)
	return len(o.domain) - 1
}

// rebuildScores recomputes the score slab from the claims against the
// σ-table sigmas, summing in claim order.
func (o *object) rebuildScores(sigmas []float64) {
	for i := range o.scores {
		o.scores[i] = 0
	}
	for i := range o.claims {
		c := &o.claims[i]
		o.scores[o.domainIndex(c.val)] += sigmas[c.src]
	}
}

// rescore rebuilds an object's score slab and posterior against the
// σ-table sigmas and stamps it with the epoch. Caller holds the shard
// lock and the σ-table read lock.
func (o *object) rescore(sigmas []float64, valNames []string, epoch int64) {
	o.rebuildScores(sigmas)
	o.refreshPosterior()
	o.noteMAP(valNames, epoch)
	o.epoch = epoch
}

// noteMAP refreshes the cached MAP domain index after a posterior
// change and stamps the flip epoch when the MAP value moved — the
// bookkeeping behind Row.Changed ("estimates that flipped since epoch
// E"). An object's very first claim counts as a flip: the estimate
// appeared. Caller holds the shard lock.
func (o *object) noteMAP(valNames []string, epoch int64) {
	o.noteIndex(mapIndex(o, valNames), epoch)
}

// noteIndex installs ix as the cached MAP index, stamping the flip
// epoch when it moved.
func (o *object) noteIndex(ix int32, epoch int64) {
	if ix >= 0 && ix != o.mapIx {
		o.mapIx = ix
		o.changed = epoch
	}
}

// noteLeader does noteMAP's bookkeeping for the scores as they stand,
// without the softmax when leader can read the MAP off the scores. It
// leaves post stale unless it has to fall back to the softmax.
func (o *object) noteLeader(valNames []string, epoch int64) {
	if ix := o.leader(); ix >= 0 {
		o.noteIndex(ix, epoch)
		return
	}
	o.refreshPosterior()
	o.noteMAP(valNames, epoch)
}

// leaderMargin is the relative score margin beyond which the top live
// score is the softmax's MAP whatever the rounding. The softmax rounds
// each score's offset from the log-sum-exp to within an ulp or two of
// the scores' magnitude, and math.Exp is accurate to under an ulp; a
// gap of 1e-9·(1+|top|) is millions of ulps wider than both, so the
// top entry's posterior is strictly the largest and no tie-break runs.
const leaderMargin = 1e-9

// leader returns the domain index mapIndex would pick after
// refreshPosterior, read off the scores: the top live score, when it
// is finite and leads every other live score by more than the rounding
// of the softmax could close. It returns -1 on a near-tie, a NaN or
// ±Inf score, or no live entry; the caller then runs the softmax.
func (o *object) leader() int32 {
	best := -1
	top, second := math.Inf(-1), math.Inf(-1)
	lnN := o.falseValues()
	for i, r := range o.refs {
		if r <= 0 {
			continue
		}
		s := o.score(i, lnN)
		if math.IsNaN(s) || math.IsInf(s, 0) {
			return -1
		}
		if s > top {
			best, top, second = i, s, top
		} else if s > second {
			second = s
		}
	}
	if best < 0 || top-second <= leaderMargin*(1+math.Abs(top)) {
		return -1
	}
	return int32(best)
}

// mapIndex returns the domain index of the object's MAP value under
// the engine's tie-break (ties go to the lexically smaller value
// name), or -1 when the object has no posterior yet. Caller holds the
// shard lock and passes a valueNames() snapshot.
func mapIndex(o *object, valNames []string) int32 {
	if len(o.post) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(o.domain); i++ {
		if o.post[i] > o.post[best] ||
			(o.post[i] == o.post[best] && valNames[o.domain[i]] < valNames[o.domain[best]]) {
			best = i
		}
	}
	return int32(best)
}

// ensureSource grows the shard-local per-source vectors to cover sid.
func (sh *shard) ensureSource(sid int) {
	for len(sh.deltaAgree) <= sid {
		sh.deltaAgree = append(sh.deltaAgree, 0)
		sh.deltaTotal = append(sh.deltaTotal, 0)
		sh.obsCount = append(sh.obsCount, 0)
		sh.evictedAgree = append(sh.evictedAgree, 0)
		sh.evictedTotal = append(sh.evictedTotal, 0)
	}
}

// insert allocates (or reuses) an object slot for name, whose index
// hash is h, links it into the LRU, and evicts beyond the shard cap.
// Caller holds sh.mu.
func (sh *shard) insert(e *Engine, name string, h uint64, epoch int64) int {
	var ix int
	if n := len(sh.free); n > 0 {
		ix = sh.free[n-1]
		sh.free = sh.free[:n-1]
		obj := &sh.objs[ix]
		obj.name = name
		obj.epoch = epoch
		obj.changed = 0
		obj.claims = obj.claims[:0]
		obj.domain = obj.domain[:0]
		obj.refs = obj.refs[:0]
		obj.scores = obj.scores[:0]
		obj.post = obj.post[:0]
		obj.mapIx = -1
		obj.dirty = false
		obj.live = true
	} else {
		ix = len(sh.objs)
		sh.objs = append(sh.objs, object{name: name, epoch: epoch, live: true, mapIx: -1, prev: -1, next: -1})
	}
	sh.indexAdd(ix, h)
	sh.lruPush(ix)
	sh.nLive++
	if e.shardCap > 0 && sh.nLive > e.shardCap {
		sh.evict(sh.lruTail)
		e.met.EvictedObjects.Inc()
	}
	return ix
}

// evict settles and drops the object in slot ix, retaining its
// posterior mass in the shard's evicted accumulators. Caller holds
// sh.mu.
func (sh *shard) evict(ix int) {
	obj := &sh.objs[ix]
	for i := range obj.claims {
		c := &obj.claims[i]
		p := obj.post[obj.domainIndex(c.val)]
		sh.deltaAgree[c.src] += p - c.settled
		sh.evictedAgree[c.src] += p
		sh.evictedTotal[c.src]++
		sh.evictedMass += p
	}
	sh.evictedObjects++
	sh.evictedClaims += int64(len(obj.claims))
	sh.lruUnlink(ix)
	sh.indexDrop(ix)
	obj.name = ""
	obj.dirty = false
	obj.live = false
	sh.free = append(sh.free, ix)
	sh.nLive--
}

// lruPush links ix at the head (most recent). Caller holds sh.mu.
func (sh *shard) lruPush(ix int) {
	obj := &sh.objs[ix]
	obj.prev = -1
	obj.next = sh.lruHead
	if sh.lruHead >= 0 {
		sh.objs[sh.lruHead].prev = ix
	}
	sh.lruHead = ix
	if sh.lruTail < 0 {
		sh.lruTail = ix
	}
}

// lruUnlink removes ix from the list. Caller holds sh.mu.
func (sh *shard) lruUnlink(ix int) {
	obj := &sh.objs[ix]
	if obj.prev >= 0 {
		sh.objs[obj.prev].next = obj.next
	} else {
		sh.lruHead = obj.next
	}
	if obj.next >= 0 {
		sh.objs[obj.next].prev = obj.prev
	} else {
		sh.lruTail = obj.prev
	}
	obj.prev, obj.next = -1, -1
}

// lruTouch moves ix to the head. Caller holds sh.mu.
func (sh *shard) lruTouch(ix int) {
	if sh.lruHead == ix {
		return
	}
	sh.lruUnlink(ix)
	sh.lruPush(ix)
}

// drain folds the shard's dirty-object posterior drift into its delta
// vectors and hands (deltaAgree, deltaTotal, obsCount) to fold, which
// must copy what it needs; the vectors are zeroed before returning.
// Caller must not hold sh.mu.
func (sh *shard) drain(fold func(agree, total []float64, obs []int64)) {
	sh.mu.Lock()
	for _, ix := range sh.dirtyIx {
		obj := &sh.objs[ix]
		if !obj.dirty {
			continue // settled by eviction (or a duplicate entry)
		}
		for i := range obj.claims {
			c := &obj.claims[i]
			p := obj.post[obj.domainIndex(c.val)]
			if d := p - c.settled; d != 0 {
				sh.deltaAgree[c.src] += d
				c.settled = p
			}
		}
		obj.dirty = false
	}
	sh.dirtyIx = sh.dirtyIx[:0]
	fold(sh.deltaAgree, sh.deltaTotal, sh.obsCount)
	for i := range sh.deltaAgree {
		sh.deltaAgree[i] = 0
		sh.deltaTotal[i] = 0
		sh.obsCount[i] = 0
	}
	sh.mu.Unlock()
}

// maybeRefresh runs an epoch refresh if the observation budget is
// still spent once the refresh lock is held (another goroutine may
// have refreshed first).
func (e *Engine) maybeRefresh() {
	e.refreshMu.Lock()
	defer e.refreshMu.Unlock()
	if e.sinceEp.Load() < e.epochLen {
		return
	}
	e.sinceEp.Store(0)
	e.refreshLocked()
}

// refreshLocked drains every shard in shard order, folds the deltas
// into the global source state with Options.Fold (the fold the
// cluster router's barrier runs too), and ends the epoch with
// installEpochLocked. Caller holds refreshMu.
func (e *Engine) refreshLocked() {
	var began time.Time
	if e.met.EpochRefreshSeconds != nil {
		began = time.Now()
	}
	agree, total, obs := e.drainAll()
	e.src.mu.Lock()
	for s := range agree { // every id here exists: interning precedes claims
		var a float64
		e.src.agree[s], e.src.total[s], a = e.opts.Fold(e.src.agree[s], e.src.total[s], agree[s], total[s], obs[s])
		if e.learner == nil {
			e.src.setAccuracy(s, a)
		}
	}
	epoch := e.installEpochLocked()
	e.met.EpochRefreshes.Inc()
	e.met.Epoch.Set(float64(epoch))
	if e.met.EpochRefreshSeconds != nil {
		e.met.EpochRefreshSeconds.Observe(time.Since(began).Seconds())
	}
}

// installEpochLocked ends an epoch refresh or a Refine sweep, whose
// fold leaves src.mu held for writing: it installs the σ-table, bumps
// the epoch, releases src.mu and returns the new epoch. Without the
// learner the fold has set σ already. With it, the learner registers
// every source interned so far, runs one FitMass round on a copy of
// the folded mass (taken in the drain scratch, in the same src.mu
// section as the name table, so the two cover the same sources), and
// every registered source's σ comes from Blend over the engine's mass;
// a source with no traffic gets a fresh σ too, because the feature
// weights move. Caller holds refreshMu.
func (e *Engine) installEpochLocked() int64 {
	if e.learner != nil {
		names := e.src.names
		agree := append(e.mergeAgree[:0], e.src.agree...)
		total := append(e.mergeTotal[:0], e.src.total...)
		e.mergeAgree, e.mergeTotal = agree, total
		e.src.mu.Unlock()

		e.learnMu.Lock()
		for sid := e.learner.NumSources(); sid < len(names); sid++ {
			e.learner.SetFeatures(sid, e.features[names[sid]])
		}
		e.learner.FitMass(agree, total)
		if e.met.FeatureWeightNorm != nil {
			e.met.FeatureWeightNorm.Set(e.learner.WeightNorm())
		}
		e.learnMu.Unlock()
		e.met.LearnerEpochs.Inc()

		// Reading the learner without learnMu is safe here: mutation
		// only happens under refreshMu, which the caller holds.
		// Sources interned after names keep their prior σ until the
		// next refresh.
		e.src.mu.Lock()
		for s := range names {
			e.src.setAccuracy(s, e.learner.Blend(s, e.src.agree[s], e.src.total[s]))
		}
	}
	e.src.epoch++
	epoch := e.src.epoch
	e.src.mu.Unlock()
	return epoch
}

// Refine runs full re-estimation sweeps — accuracies from posteriors,
// then posteriors from the new accuracies — over all live objects,
// with evicted mass as the irreducible base. This is the exact
// re-sweep of the oracle Fuser's Refine: both converge to the same fixed
// point, and the engine's result is bit-identical for any Workers
// count. In online mode each sweep mirrors core.Calibrate's
// structure: refit the feature weights on the pooled mass, then
// re-anchor each source with the closed-form empirical-Bayes step
// (installEpochLocked). Refine locks out epoch refreshes; for
// deterministic output do not ingest concurrently.
func (e *Engine) Refine(sweeps int) {
	if sweeps <= 0 {
		return
	}
	e.refreshMu.Lock()
	defer e.refreshMu.Unlock()
	for sweep := 0; sweep < sweeps; sweep++ {
		agree, total := e.refineMass()
		n := len(agree)
		if n == 0 {
			return
		}
		e.src.mu.Lock()
		// In online mode every registered source is re-anchored, and
		// those with no mass fall back to their feature prior.
		hi := n
		if e.learner != nil {
			hi = max(n, len(e.src.agree))
		}
		for s := 0; s < hi; s++ {
			var a, t float64
			if s < n {
				a, t = agree[s], total[s]
			}
			e.src.agree[s] = a
			e.src.total[s] = t
			if e.learner == nil {
				e.src.setAccuracy(s, smoothedAccuracy(e.opts.Options, a, t))
			}
		}
		epoch := e.installEpochLocked()
		e.rescoreAll(epoch)
		e.met.RefineSweeps.Inc()
		e.met.Epoch.Set(float64(epoch))
	}
	e.sinceEp.Store(0)
}

// drainAll drains every shard in shard order and returns the merged
// (agree, total, obs) deltas in the reused merge scratch. Shard order
// fixes the float accumulation order: the drain is a deterministic
// ordered reduction regardless of who ingested what, and a cluster
// coordinator continues the same reduction across engines. The
// buffers grow to cover whatever source ids the drains reference: a
// concurrent Observe may intern new sources after any initial count
// snapshot, so sizing is never driven by a stale length. Caller holds
// refreshMu.
func (e *Engine) drainAll() (agree, total []float64, obs []int64) {
	agree, total, obs = e.mergeAgree[:0], e.mergeTotal[:0], e.mergeObs[:0]
	for s := range e.shards {
		e.shards[s].drain(func(da, dt []float64, oc []int64) {
			for len(agree) < len(da) {
				agree = append(agree, 0)
				total = append(total, 0)
				obs = append(obs, 0)
			}
			for i := range da {
				agree[i] += da[i]
				total[i] += dt[i]
				obs[i] += oc[i]
			}
		})
	}
	e.mergeAgree, e.mergeTotal, e.mergeObs = agree, total, obs
	return agree, total, obs
}

// refineMass recomputes one Refine sweep's exact per-source agreement
// mass under the current posteriors: evicted mass as the irreducible
// base plus every live claim's posterior, pooled across shards in
// shard order (deterministic). Each claim's settled mark moves to the
// value just summed and the shard deltas are zeroed, so later drains
// stay consistent with the state rebuilt from this mass. The vectors
// are sized by the ids actually referenced (a concurrent Observe may
// intern sources mid-sweep, so a snapshotted global count would be
// stale). Caller holds refreshMu.
func (e *Engine) refineMass() (agree, total []float64) {
	type mass struct{ agree, total []float64 }
	parts := parallel.Map(e.nShards, e.opts.Workers, func(s int) mass {
		sh := &e.shards[s]
		sh.mu.Lock()
		defer sh.mu.Unlock()
		m := mass{
			agree: append([]float64(nil), sh.evictedAgree...),
			total: append([]float64(nil), sh.evictedTotal...),
		}
		for ix := range sh.objs {
			obj := &sh.objs[ix]
			if !obj.live {
				continue
			}
			for i := range obj.claims {
				c := &obj.claims[i]
				p := obj.post[obj.domainIndex(c.val)]
				for len(m.agree) <= int(c.src) {
					m.agree = append(m.agree, 0)
					m.total = append(m.total, 0)
				}
				m.agree[c.src] += p
				m.total[c.src]++
				c.settled = p
			}
			obj.dirty = false
		}
		sh.dirtyIx = sh.dirtyIx[:0]
		for i := range sh.deltaAgree {
			sh.deltaAgree[i] = 0
			sh.deltaTotal[i] = 0
			sh.obsCount[i] = 0
		}
		return m
	})
	for _, m := range parts {
		for len(agree) < len(m.agree) {
			agree = append(agree, 0)
			total = append(total, 0)
		}
		for s := range m.agree {
			agree[s] += m.agree[s]
			total[s] += m.total[s]
		}
	}
	return agree, total
}

// rescoreAll rescores every live object under the σ-table of epoch and
// marks it dirty, so its drift against the settled mass folds in at
// the next drain. Caller holds refreshMu.
func (e *Engine) rescoreAll(epoch int64) {
	parallel.For(e.nShards, e.opts.Workers, func(s int) {
		sh := &e.shards[s]
		sh.mu.Lock()
		valNames := e.valueNames()
		e.src.mu.RLock()
		for ix := range sh.objs {
			obj := &sh.objs[ix]
			if !obj.live {
				continue
			}
			obj.rescore(e.src.sigma, valNames, epoch)
			if !obj.dirty {
				obj.dirty = true
				sh.dirtyIx = append(sh.dirtyIx, ix)
			}
		}
		e.src.mu.RUnlock()
		sh.mu.Unlock()
	})
}

// Value returns the current MAP estimate and posterior probability for
// an object; ok is false for unknown (or evicted) objects. Ties break
// to the lexically smaller value name, as in the reference Fuser. It
// is a point ScanShard, so it reports exactly the scan's row. Safe to
// call during ingest.
func (e *Engine) Value(objectName string) (value string, confidence float64, ok bool) {
	point := ScanOptions{PairA: -1, PairB: -1, Point: true, Object: objectName}
	e.ScanShard(ShardIndex(objectName, e.nShards), point, func(r *Row) bool {
		value, confidence, ok = r.Value, r.Confidence, true
		return false
	})
	return value, confidence, ok
}

// valueNames snapshots the value name table without holding its lock
// across caller loops: names is append-only and every published index
// is immutable, so the returned header stays valid. Capture it after
// locking a shard and it covers every value id that shard's claims
// reference (interning happens-before claim insertion).
func (e *Engine) valueNames() []string {
	e.vals.mu.RLock()
	names := e.vals.names
	e.vals.mu.RUnlock()
	return names
}

// sourceNames is the source-table analog of valueNames.
func (e *Engine) sourceNames() []string {
	e.src.mu.RLock()
	names := e.src.names
	e.src.mu.RUnlock()
	return names
}

// SourceAccuracy returns the frozen-epoch accuracy estimate for a
// source (the prior for unknown sources). Evidence from the current
// epoch is reflected after the next refresh or Refine. Safe to call
// during ingest.
func (e *Engine) SourceAccuracy(source string) float64 {
	e.src.mu.RLock()
	defer e.src.mu.RUnlock()
	if id, ok := e.src.ids[source]; ok {
		return e.src.acc[id]
	}
	return e.opts.InitAccuracy
}

// OnlineLearning reports whether the discriminative reliability
// learner is active.
func (e *Engine) OnlineLearning() bool { return e.learner != nil }

// SourceAccuracyDetail decomposes a known source's estimate in online
// mode: acc is the served accuracy (the σ-table entry), learned is the
// pure feature-model prediction, and empirical is the prior-smoothed
// cumulative agreement ratio (what a featureless engine would serve).
// ok is false for unknown sources or when online learning is off.
// Safe to call during ingest.
func (e *Engine) SourceAccuracyDetail(source string) (acc, learned, empirical float64, ok bool) {
	if e.learner == nil {
		return 0, 0, 0, false
	}
	e.src.mu.RLock()
	id, known := e.src.ids[source]
	if known {
		acc = e.src.acc[id]
		empirical = smoothedAccuracy(e.opts.Options, e.src.agree[id], e.src.total[id])
	}
	e.src.mu.RUnlock()
	if !known {
		return 0, 0, 0, false
	}
	e.learnMu.RLock()
	if id < e.learner.NumSources() {
		learned = e.learner.Predict(id)
	} else {
		// Interned but not yet registered (no refresh since): predict
		// from its configured labels alone.
		learned = e.learner.PredictLabels(e.features[source])
	}
	e.learnMu.RUnlock()
	return acc, learned, empirical, true
}

// FeatureWeights snapshots the online learner's model: the intercept
// plus every interned (label, weight) pair in intern order. ok is
// false when the engine has no online learner. Safe to call during
// ingest.
func (e *Engine) FeatureWeights() (intercept float64, feats []online.WeightedFeature, ok bool) {
	if e.learner == nil {
		return 0, nil, false
	}
	e.learnMu.RLock()
	defer e.learnMu.RUnlock()
	intercept, feats = e.learner.FeatureWeights()
	return intercept, feats, true
}

// PredictAccuracy estimates the accuracy of a source never seen on the
// stream from feature labels alone — the serving analog of
// core.Model.PredictAccuracy (Section 5.3.2). Returns the prior when
// online learning is off. Safe to call during ingest.
func (e *Engine) PredictAccuracy(labels []string) float64 {
	if e.learner == nil {
		return e.opts.InitAccuracy
	}
	e.learnMu.RLock()
	defer e.learnMu.RUnlock()
	return e.learner.PredictLabels(labels)
}

// Sources returns the known source names in sorted order. Safe to
// call during ingest.
func (e *Engine) Sources() []string {
	out := append([]string(nil), e.sourceNames()...)
	sort.Strings(out)
	return out
}

// Estimate is one live object's MAP value and its posterior
// probability.
type Estimate struct {
	Object     string
	Value      string
	Confidence float64
}

// EstimatesSeq yields every live object's MAP estimate with its
// confidence, sorted by object name — the rows of the plain estimates
// query (query.Execute with an empty Query), whatever the shard count.
// It collects them in one locked pass per shard, so callers that need
// both value and confidence never re-derive MAPs object by object.
// Safe to call during ingest; no locks are held while the consumer
// runs.
func (e *Engine) EstimatesSeq() iter.Seq[Estimate] {
	parts := parallel.Map(e.nShards, e.opts.Workers, func(s int) []Estimate {
		out := make([]Estimate, 0, e.ShardLen(s))
		e.ScanShard(s, NoPair, func(r *Row) bool {
			out = append(out, Estimate{r.Object, r.Value, r.Confidence})
			return true
		})
		return out
	})
	all := slices.Concat(parts...)
	slices.SortFunc(all, func(a, b Estimate) int { return strings.Compare(a.Object, b.Object) })
	return slices.Values(all)
}

// Estimates returns the MAP value of every live object. Safe to call
// during ingest (each shard is snapshotted under its read lock).
func (e *Engine) Estimates() map[string]string {
	est := make(map[string]string)
	for x := range e.EstimatesSeq() {
		est[x.Object] = x.Value
	}
	return est
}

// Observations reports how many claims the engine has ingested,
// Stats().Observations without taking any lock.
func (e *Engine) Observations() int64 { return e.nObs.Load() }

// EngineStats reports the engine's size and eviction accounting.
type EngineStats struct {
	Shards         int
	Sources        int
	Objects        int // live objects
	Observations   int64
	Epoch          int64
	EpochLength    int64 // observations per epoch; ExternalEpochLength in cluster member mode
	EvictedObjects int64
	EvictedClaims  int64
	EvictedMass    float64 // posterior agreement mass retained from evicted objects
}

// Stats snapshots the engine counters. Safe to call during ingest.
func (e *Engine) Stats() EngineStats {
	st := EngineStats{Shards: e.nShards, Observations: e.nObs.Load(), EpochLength: e.epochLen}
	e.src.mu.RLock()
	st.Sources = len(e.src.names)
	st.Epoch = e.src.epoch
	e.src.mu.RUnlock()
	for s := range e.shards {
		sh := &e.shards[s]
		sh.mu.RLock()
		st.Objects += sh.nLive
		st.EvictedObjects += sh.evictedObjects
		st.EvictedClaims += sh.evictedClaims
		st.EvictedMass += sh.evictedMass
		sh.mu.RUnlock()
	}
	return st
}

// MarkSeq records an ingest idempotency key and reports whether it
// was new: true means the caller should ingest the batch, false means
// the key is a replay inside the dedup window and the batch has
// already been applied. The window is a bounded ring — once full, the
// oldest key is forgotten — sized by EngineOptions.DedupWindow.
func (e *Engine) MarkSeq(key string) bool {
	if key == "" {
		return true
	}
	e.seqMu.Lock()
	defer e.seqMu.Unlock()
	return e.seq.Mark(key)
}

// SeqSeen reports whether key is currently inside the dedup window
// without recording it — the fast pre-lock duplicate check.
func (e *Engine) SeqSeen(key string) bool {
	if key == "" {
		return false
	}
	e.seqMu.Lock()
	defer e.seqMu.Unlock()
	return e.seq.Seen(key)
}

// seqSnapshot copies the dedup window oldest-first (the order MarkSeq
// replay must reinsert to preserve eviction order).
func (e *Engine) seqSnapshot() []string {
	e.seqMu.Lock()
	defer e.seqMu.Unlock()
	return e.seq.Keys()
}

// Snapshot exports the live claims as an immutable Dataset plus the
// current MAP estimates, for handing to the batch SLiMFast pipeline.
// Evicted objects are not included (their state is gone by contract).
func (e *Engine) Snapshot(name string) (*data.Dataset, data.TruthMap) {
	type row struct{ object, source, value string }
	var rows []row
	for s := range e.shards {
		sh := &e.shards[s]
		sh.mu.RLock()
		valNames := e.valueNames()
		srcNames := e.sourceNames()
		for ix := range sh.objs {
			obj := &sh.objs[ix]
			if !obj.live {
				continue
			}
			for i := range obj.claims {
				c := &obj.claims[i]
				rows = append(rows, row{obj.name, srcNames[c.src], valNames[c.val]})
			}
		}
		sh.mu.RUnlock()
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].object != rows[j].object {
			return rows[i].object < rows[j].object
		}
		return rows[i].source < rows[j].source
	})
	b := data.NewBuilder(name)
	for _, r := range rows {
		b.ObserveNames(r.source, r.object, r.value)
	}
	ds := b.Freeze()
	estimates := data.TruthMap{}
	if tm, err := data.TruthFromNames(ds, e.Estimates()); err == nil {
		estimates = tm
	}
	return ds, estimates
}
