// Package cluster implements the consistent-hash scale-out router
// behind `slimfast router`: one coordinator that partitions objects
// across N `slimfast stream -listen` nodes and drives their epochs so
// the cluster is bit-identical to a single N-shard engine fed the
// same claim stream.
//
// The design is the engine's own in-process shard pattern lifted one
// level up. A single engine partitions objects over shards with an
// FNV-1a hash, drains per-shard evidence deltas in shard order, folds
// them into one cumulative table, and freezes a new σ-table for the
// next epoch. The router does exactly that across processes: objects
// route to nodes with the same hash (stream.ShardIndex), ingest fans
// out over the nodes' HTTP /observe surface through the retrying
// resilience client, and at every epoch barrier the router drains all
// nodes at once (POST /epoch/drain), merges the deltas node-major once
// every reply is in — the same float accumulation order as a shard
// drain — folds them with stream.Options.Fold, the very function the
// engine's refresh calls, and pushes the merged σ-table back to every
// node at once (POST /epoch/apply). Refine is the same protocol over
// /epoch/mass with an eager rescore. Members are independent between
// barriers (an object's posterior needs only its own claims and the
// shared σ-table), so every fan-out posts to all members together and
// only the merge order is fixed. Because every float is folded in the
// same order a single engine would fold it, the cluster's estimates
// and source accuracies match the single engine bit for bit
// (TestRouterGoldenEquivalence in cmd/slimfast pins this down).
//
// Exactly-once across retries and node restarts:
//
//   - Every fan-out chunk carries a derived idempotency key
//     ("<seq>.c<chunk>.n<node>"), so node-level dedup collapses
//     router retries.
//   - Duplicate chunks are always re-forwarded but never re-counted:
//     a node restored from its checkpoint needs the re-delivery (its
//     dedup window was checkpointed with it, so lost claims re-ingest
//     and already-applied ones are acknowledged without effect).
//   - Coordination exchanges are idempotent by barrier tag: draining
//     is destructive, so nodes replay the cached response of the last
//     tag instead of re-draining when a barrier retries after a lost
//     response.
//   - A failed barrier stays pending and re-runs at the same position
//     in the claim stream before any further chunk is forwarded —
//     barrier position determines the σ history, so it must not
//     drift under retries.
//
// The router's own durable state — cumulative per-source evidence,
// counters, and the chunk dedup window — is a small JSON manifest
// (see Manifest) written atomically beside the nodes' checkpoint
// generations at every cluster checkpoint.
package cluster

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"slimfast/internal/obs"
	"slimfast/internal/query"
	"slimfast/internal/resilience"
	"slimfast/internal/stream"
)

// Config assembles a Router.
type Config struct {
	// Nodes are the member base URLs ("http://host:port"). Their order
	// is the partition order and must be stable across router restarts:
	// object → node routing and the barrier fold order both key on it.
	Nodes []string

	// Batch is the fan-out chunk size in claims. Epoch barriers land on
	// chunk boundaries, so Batch together with EpochLength fixes where
	// in the claim stream the σ-table refreshes — the same role -batch
	// plays for a single engine.
	Batch int

	// EpochLength is how many claims pass between accuracy barriers,
	// cluster-wide (the single engine's -epoch).
	EpochLength int

	// Opts must match the streaming options the member nodes were
	// started with; the router re-runs the engine's accuracy fold with
	// them.
	Opts stream.Options

	// CheckpointEpochs triggers a cluster checkpoint (every node writes
	// a generation, then the manifest is written) after this many
	// barriers. 0 disables periodic checkpoints; the default 1 makes
	// every barrier durable, which is what provably lossless node
	// recovery wants.
	CheckpointEpochs int

	// ManifestPath is where the router persists its own state. Empty
	// disables the manifest (the router then restarts cold).
	ManifestPath string

	// HTTP is the transport for all node traffic (nil =
	// http.DefaultClient).
	HTTP *http.Client

	// Retry tunes the resilience client wrapped around every fan-out
	// and coordination request.
	Retry resilience.ClientConfig

	// Log receives operational notes (nil = discard).
	Log io.Writer

	// Metrics is the optional instrumentation seam; the zero value is
	// a no-op.
	Metrics Metrics
}

// Router coordinates a fixed set of member nodes. All mutating
// operations serialize on one mutex — the cluster-level ingest lock,
// mirroring the per-node request serialization — while health probes
// read atomic counters and never block on in-flight work.
type Router struct {
	cfg    Config
	client *resilience.Client
	hc     *http.Client
	log    io.Writer

	mu    sync.Mutex
	ix    map[string]int // source name -> index in names/agree/total
	names []string
	agree []float64 // cluster-cumulative settled evidence
	total []float64
	// pendingBarrier records that the claim stream crossed an epoch
	// boundary but the barrier has not completed; it must run before
	// any further chunk is forwarded.
	pendingBarrier bool
	since          int                // claims since the last barrier
	claims         int64              // lifetime claims ingested (deduped)
	barriers       int64              // completed epoch barriers
	refines        int64              // completed refine operations
	refineSweeps   int                // sweeps completed of an in-flight refine
	seen           *resilience.Window // chunk-key dedup window, as long as the nodes' request window

	// Probe-visible mirrors of the counters above, updated under mu,
	// read lock-free by Stats/Health/Ready.
	statClaims   atomic.Int64
	statBarriers atomic.Int64
	statRefines  atomic.Int64
	statSince    atomic.Int64
	statSources  atomic.Int64

	// Buffers reused under mu: the per-partition fan-out chunk bodies
	// and answers, the epoch request body, the rows of one drain or
	// mass reply, and fanOutLocked's partition lists and error slots.
	fanBufs  [][]byte
	respBufs []bytes.Buffer
	reqBuf   []byte
	rows     []stream.StatRow
	allParts []int // 0..len(Nodes)-1
	active   []int // forwardLocked's non-empty partitions
	fanErrs  []error

	// Instrumentation (all nil-safe): per-partition fan-out children
	// resolved once at New, plus the scalar seams from Config.Metrics.
	met    Metrics
	fanReq []*obs.Counter
	fanSec []*obs.Histogram
}

// New validates cfg, normalizes the node URLs, and — when a manifest
// exists at cfg.ManifestPath — restores the router's state from it.
func New(cfg Config) (*Router, error) {
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("cluster: at least one node is required")
	}
	if cfg.Batch < 1 {
		cfg.Batch = 1024
	}
	if cfg.EpochLength < 1 {
		cfg.EpochLength = 1024
	}
	if cfg.Opts == (stream.Options{}) {
		cfg.Opts = stream.DefaultOptions()
	}
	if err := cfg.Opts.Validate(); err != nil {
		return nil, err
	}
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	nodes := make([]string, len(cfg.Nodes))
	for i, n := range cfg.Nodes {
		n = strings.TrimRight(n, "/")
		if n == "" {
			return nil, fmt.Errorf("cluster: node %d has an empty address", i)
		}
		if !strings.Contains(n, "://") {
			n = "http://" + n
		}
		nodes[i] = n
	}
	cfg.Nodes = nodes
	hc := cfg.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	r := &Router{
		cfg:      cfg,
		client:   resilience.NewClient(hc, cfg.Retry),
		hc:       hc,
		log:      cfg.Log,
		ix:       map[string]int{},
		seen:     resilience.NewWindow(stream.DedupWindow),
		fanBufs:  make([][]byte, len(nodes)),
		respBufs: make([]bytes.Buffer, len(nodes)),
		allParts: make([]int, len(nodes)),
		fanErrs:  make([]error, len(nodes)),
		met:      cfg.Metrics,
		fanReq:   make([]*obs.Counter, len(nodes)),
		fanSec:   make([]*obs.Histogram, len(nodes)),
	}
	for j := range nodes {
		r.allParts[j] = j
		if cfg.Metrics.FanoutRequests != nil {
			r.fanReq[j] = cfg.Metrics.FanoutRequests.With(strconv.Itoa(j))
		}
		if cfg.Metrics.FanoutSeconds != nil {
			r.fanSec[j] = cfg.Metrics.FanoutSeconds.With(strconv.Itoa(j))
		}
	}
	if cfg.ManifestPath != "" {
		if err := r.restoreManifest(cfg.ManifestPath); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Nodes returns the normalized member URLs in partition order.
func (r *Router) Nodes() []string { return append([]string(nil), r.cfg.Nodes...) }

// Partition reports which node an object routes to — the engine's own
// FNV-1a shard routing, over nodes instead of shards.
func (r *Router) Partition(object string) int {
	return stream.ShardIndex(object, len(r.cfg.Nodes))
}

// internLocked returns the index for a source name, growing the
// cumulative vectors for new names.
func (r *Router) internLocked(name string) int {
	if i, ok := r.ix[name]; ok {
		return i
	}
	i := len(r.names)
	r.ix[name] = i
	r.names = append(r.names, name)
	r.agree = append(r.agree, 0)
	r.total = append(r.total, 0)
	return i
}

// syncStatsLocked refreshes the probe-visible counter mirrors and the
// client-retry gauge.
func (r *Router) syncStatsLocked() {
	r.statClaims.Store(r.claims)
	r.statBarriers.Store(r.barriers)
	r.statRefines.Store(r.refines)
	r.statSince.Store(int64(r.since))
	r.statSources.Store(int64(len(r.names)))
	r.met.Retries.Set(float64(r.client.Retries()))
}

// IngestResult reports one Ingest call's effect.
type IngestResult struct {
	// Ingested counts claims newly forwarded and counted (claims in
	// chunks the router had already completed are excluded).
	Ingested int64 `json:"ingested"`
	// DedupedChunks counts chunks that were re-forwarded for node-side
	// dedup but not re-counted.
	DedupedChunks int `json:"deduped_chunks,omitempty"`
	// Claims is the cluster-lifetime deduplicated claim count.
	Claims int64 `json:"claims"`
	// Barriers is the completed epoch-barrier count.
	Barriers int64 `json:"barriers"`
}

// Ingest partitions claims over the member nodes in Batch-sized
// chunks and drives epoch barriers at the same positions in the claim
// stream a single engine's refresh would fire. seq is the request's
// idempotency key ("" = no dedup): each chunk derives a stable key
// from it, so a retried request re-forwards every chunk (nodes dedup
// individually — a node restored from checkpoint needs the replay)
// without double-counting claims or re-running barriers.
func (r *Router) Ingest(ctx context.Context, claims []stream.Triple, seq string) (IngestResult, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	defer r.syncStatsLocked()
	var res IngestResult
	chunk := 0
	for lo := 0; lo < len(claims); lo += r.cfg.Batch {
		// A barrier left pending by an earlier failure must complete at
		// its position in the stream before any new claim passes it.
		if err := r.flushBarrierLocked(ctx); err != nil {
			return res, err
		}
		hi := min(lo+r.cfg.Batch, len(claims))
		part := claims[lo:hi]
		key := ""
		if seq != "" {
			key = seq + ".c" + strconv.Itoa(chunk)
		}
		first := key == "" || !r.seen.Seen(key)
		if err := r.forwardLocked(ctx, part, key); err != nil {
			return res, err
		}
		if first {
			// The chunk is marked complete before its barrier runs: the
			// claims are on the nodes and counted, so a retry must skip
			// straight to the pending barrier instead of re-counting.
			if key != "" {
				r.seen.Mark(key)
			}
			r.claims += int64(len(part))
			r.since += len(part)
			r.met.Claims.Add(uint64(len(part)))
			res.Ingested += int64(len(part))
			if r.since >= r.cfg.EpochLength {
				r.pendingBarrier = true
			}
		} else {
			res.DedupedChunks++
		}
		chunk++
	}
	if err := r.flushBarrierLocked(ctx); err != nil {
		return res, err
	}
	res.Claims = r.claims
	res.Barriers = r.barriers
	return res, nil
}

// fanOutLocked runs do for every partition in parts (ascending) at the
// same time and waits for all of them. The first partition runs on the
// calling goroutine, so a one-partition call starts no goroutine. No
// request is cancelled because another failed: per-node dedup keys and
// barrier tags make the retry of a partial fan-out safe. The error is
// the lowest-numbered failing partition's, so it never depends on
// which member answered first. Callers hold mu, which guards the error
// slots; do may touch only its own partition's buffers.
func (r *Router) fanOutLocked(parts []int, do func(j int) error) error {
	errs := r.fanErrs[:len(parts)]
	var wg sync.WaitGroup
	for k := 1; k < len(parts); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[k] = do(parts[k])
		}()
	}
	if len(parts) > 0 {
		errs[0] = do(parts[0])
	}
	wg.Wait()
	var err error
	for k, e := range errs {
		if err == nil {
			err = e
		}
		errs[k] = nil
	}
	return err
}

// forwardLocked fans one chunk out to the nodes owning its objects at
// once, each partition's claims as canonical NDJSON
// (stream.AppendClaim).
func (r *Router) forwardLocked(ctx context.Context, chunk []stream.Triple, key string) error {
	bufs := r.fanBufs
	for j := range bufs {
		bufs[j] = bufs[j][:0]
	}
	for _, tr := range chunk {
		j := stream.ShardIndex(tr.Object, len(bufs))
		bufs[j] = stream.AppendClaim(bufs[j], tr)
	}
	r.active = r.active[:0]
	for j := range bufs {
		if len(bufs[j]) > 0 {
			r.active = append(r.active, j)
		}
	}
	return r.fanOutLocked(r.active, func(j int) error {
		nodeKey := ""
		if key != "" {
			nodeKey = key + ".n" + strconv.Itoa(j)
		}
		began := time.Now()
		if _, err := r.post(ctx, j, "/v1/observe", "application/x-ndjson", nodeKey, bufs[j]); err != nil {
			return fmt.Errorf("cluster: partition %d: %w", j, err)
		}
		r.fanReq[j].Inc()
		r.fanSec[j].Observe(time.Since(began).Seconds())
		return nil
	})
}

// flushBarrierLocked completes a pending epoch barrier, if any.
func (r *Router) flushBarrierLocked(ctx context.Context) error {
	if !r.pendingBarrier {
		return nil
	}
	if err := r.barrierLocked(ctx); err != nil {
		return fmt.Errorf("cluster: epoch barrier %d: %w", r.barriers+1, err)
	}
	return nil
}

// barrierLocked runs one cluster epoch: drain every node, fold the
// node-major merge of their deltas into the cluster-cumulative evidence
// with the engine's own Options.Fold, and push the resulting σ-table
// back. The cumulative state commits only after every node accepted
// the apply, so a partial failure retried under the same tag folds the
// very same (cached) drains and cannot double-count.
func (r *Router) barrierLocked(ctx context.Context) error {
	tag := "e" + strconv.FormatInt(r.barriers+1, 10)
	delta, _, err := r.gatherLocked(ctx, "/v1/epoch/drain", tag)
	if err != nil {
		return err
	}
	agree := make([]float64, len(delta))
	total := make([]float64, len(delta))
	accs := make([]stream.SourceAccuracy, len(delta))
	for s, d := range delta {
		var acc float64
		agree[s], total[s], acc = r.cfg.Opts.Fold(r.agree[s], r.total[s], d.Agree, d.Total, d.Observations)
		accs[s] = stream.SourceAccuracy{Source: r.names[s], Accuracy: acc}
	}
	if err := r.applyLocked(ctx, tag, accs, false); err != nil {
		return err
	}
	r.agree, r.total = agree, total
	r.barriers++
	r.met.Barriers.Inc()
	// The barrier is complete before the checkpoint below snapshots the
	// manifest — a restore must not re-run it.
	r.pendingBarrier = false
	r.since = 0
	if r.cfg.CheckpointEpochs > 0 && r.barriers%int64(r.cfg.CheckpointEpochs) == 0 {
		// Durability must not fail the barrier the cluster state already
		// committed; a missed generation is a warning, and the next
		// checkpoint (or shutdown) covers it.
		if err := r.checkpointLocked(ctx); err != nil {
			fmt.Fprintf(r.log, "# WARNING: cluster checkpoint after barrier %d failed: %v\n", r.barriers, err)
		}
	}
	return nil
}

// Refine drives the distributed exact re-sweep: per sweep, every node
// recomputes its partition's refine mass under the current posteriors
// (POST /epoch/mass), the router pools the masses node-major and
// re-anchors its cumulative evidence on the pool, and the new σ-table
// is pushed back with an eager rescore. Sweep progress is tracked so
// a retry after a partial failure resumes at the failed sweep with
// the same tag — never re-gathering an earlier sweep's mass under
// posteriors a later apply already moved.
func (r *Router) Refine(ctx context.Context, sweeps int) (int64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	defer r.syncStatsLocked()
	if err := r.flushBarrierLocked(ctx); err != nil {
		return r.barriers, err
	}
	op := r.refines + 1
	for sweep := r.refineSweeps; sweep < sweeps; sweep++ {
		if err := r.refineSweepLocked(ctx, op, sweep); err != nil {
			return r.barriers, fmt.Errorf("cluster: refine %d sweep %d: %w", op, sweep, err)
		}
		r.refineSweeps = sweep + 1
	}
	r.refines = op
	r.refineSweeps = 0
	return r.barriers, nil
}

func (r *Router) refineSweepLocked(ctx context.Context, op int64, sweep int) error {
	tag := "r" + strconv.FormatInt(op, 10) + ".s" + strconv.Itoa(sweep)
	mass, rows, err := r.gatherLocked(ctx, "/v1/epoch/mass", tag)
	if err != nil || rows == 0 {
		return err
	}
	agree := make([]float64, len(mass))
	total := make([]float64, len(mass))
	accs := make([]stream.SourceAccuracy, len(mass))
	for s, m := range mass {
		agree[s], total[s] = m.Agree, m.Total
		accs[s] = stream.SourceAccuracy{Source: r.names[s], Accuracy: stream.EstimateAccuracy(m.Agree, m.Total)}
	}
	if err := r.applyLocked(ctx, tag, accs, true); err != nil {
		return err
	}
	r.agree, r.total = agree, total
	return nil
}

// gatherLocked posts one tagged drain or mass exchange to every node at
// once and, once every reply is in, merges the returned stats by
// interned source id, node-major — the accumulation order of a single
// engine's shard-ordered reduction. Rows are merged straight from the
// reply bytes (stream.DecodeEpochReply); a known source costs a map
// lookup, not a string. A failed exchange at any node is reported
// before a malformed reply. rows counts the stats the nodes returned.
func (r *Router) gatherLocked(ctx context.Context, path, tag string) (merged []stream.SourceStat, rows int, err error) {
	body, err := r.epochBodyLocked(stream.EpochRequest{Tag: tag})
	if err != nil {
		return nil, 0, err
	}
	replies := make([][]byte, len(r.cfg.Nodes))
	if err := r.fanOutLocked(r.allParts, func(j int) (err error) {
		replies[j], err = r.post(ctx, j, path, "application/json", "", body)
		return err
	}); err != nil {
		return nil, 0, err
	}
	merged = make([]stream.SourceStat, len(r.names), len(r.names)+16)
	for j, node := range r.cfg.Nodes {
		if r.rows, err = stream.DecodeEpochReply(replies[j], r.rows[:0]); err != nil {
			return nil, 0, fmt.Errorf("%s%s: parsing response: %w", node, path, err)
		}
		rows += len(r.rows)
		for _, st := range r.rows {
			i, ok := r.ix[string(st.Source)]
			if !ok {
				i = r.internLocked(string(st.Source))
				for len(merged) < len(r.names) {
					merged = append(merged, stream.SourceStat{})
				}
			}
			merged[i].Agree += st.Agree
			merged[i].Total += st.Total
			merged[i].Observations += st.Observations
		}
	}
	return merged, rows, nil
}

// applyLocked pushes one tagged accuracy table to every node at once —
// one body, encoded once and shared read-only; rescore asks each node
// to rescore its live objects eagerly.
func (r *Router) applyLocked(ctx context.Context, tag string, accs []stream.SourceAccuracy, rescore bool) error {
	body, err := r.epochBodyLocked(stream.EpochRequest{Tag: tag, Accuracies: accs, Rescore: rescore})
	if err != nil {
		return err
	}
	return r.fanOutLocked(r.allParts, func(j int) error {
		_, err := r.post(ctx, j, "/v1/epoch/apply", "application/json", "", body)
		return err
	})
}

// epochBodyLocked encodes one coordination request into the reused
// request buffer.
func (r *Router) epochBodyLocked(req stream.EpochRequest) ([]byte, error) {
	body, err := stream.AppendEpochRequest(r.reqBuf[:0], req)
	if err != nil {
		return nil, fmt.Errorf("cluster: encoding epoch request: %w", err)
	}
	r.reqBuf = body
	return body, nil
}

// sourcesHeader pins the node CSV surface the merge below relies on;
// drift is an error, not silent corruption.
var sourcesHeader = []string{"source", "accuracy"}

// Sources scatter-gathers GET /sources from every node at once into
// the cluster-wide accuracy relation: the union of the node tables
// (every node holds the full pushed σ-table, but interning order
// differs), sorted by source — the rows of a single engine's table, at
// the CSV surface's precision. A source reported with two different
// accuracies is a protocol error (the apply push keeps them equal).
func (r *Router) Sources(ctx context.Context) (*query.Relation, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	tables := make([][][]string, len(r.cfg.Nodes))
	if err := r.fanOutLocked(r.allParts, func(i int) error {
		body, err := r.get(ctx, r.cfg.Nodes[i]+"/v1/sources")
		if err != nil {
			return fmt.Errorf("cluster: partition %d sources: %w", i, err)
		}
		rows, err := csv.NewReader(bytes.NewReader(body)).ReadAll()
		if err != nil {
			return fmt.Errorf("cluster: partition %d returned a malformed /sources table: %w", i, err)
		}
		if len(rows) == 0 || !slices.Equal(rows[0], sourcesHeader) {
			return fmt.Errorf("cluster: partition %d returned an unexpected /sources header (online-learner nodes cannot join a cluster)", i)
		}
		tables[i] = rows[1:]
		return nil
	}); err != nil {
		return nil, err
	}
	accs := map[string]string{}
	for _, rows := range tables {
		for _, row := range rows {
			name, acc := row[0], row[1]
			if prev, dup := accs[name]; dup && prev != acc {
				return nil, fmt.Errorf("cluster: source %q diverged across partitions (%s vs %s)", name, prev, acc)
			}
			accs[name] = acc
		}
	}
	rel := &query.Relation{Cols: []query.Column{
		{Name: "source", Kind: query.KindString},
		{Name: "accuracy", Kind: query.KindFloat},
	}}
	for _, name := range slices.Sorted(maps.Keys(accs)) {
		acc, err := strconv.ParseFloat(accs[name], 64)
		if err != nil {
			return nil, fmt.Errorf("cluster: source %q has a malformed accuracy %q", name, accs[name])
		}
		rel.Rows = append(rel.Rows, []query.Val{{Kind: query.KindString, Str: name}, {Kind: query.KindFloat, Num: acc}})
	}
	return rel, nil
}

// Checkpoint makes the cluster durable on demand: every node writes a
// checkpoint generation, then the router manifest is written.
func (r *Router) Checkpoint(ctx context.Context) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.checkpointLocked(ctx)
}

func (r *Router) checkpointLocked(ctx context.Context) error {
	if err := r.fanOutLocked(r.allParts, func(i int) error {
		if _, err := r.post(ctx, i, "/v1/checkpoint", "", "", nil); err != nil {
			return fmt.Errorf("cluster: partition %d checkpoint: %w", i, err)
		}
		return nil
	}); err != nil {
		return err
	}
	if r.cfg.ManifestPath == "" {
		return nil
	}
	if err := r.writeManifestLocked(); err != nil {
		return err
	}
	fmt.Fprintf(r.log, "# cluster manifest written to %s (%d claims, %d barriers)\n",
		r.cfg.ManifestPath, r.claims, r.barriers)
	return nil
}

// WriteManifest persists the router state (shutdown path).
func (r *Router) WriteManifest() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cfg.ManifestPath == "" {
		return nil
	}
	return r.writeManifestLocked()
}

// Stats is the router's lock-free operational snapshot.
type Stats struct {
	Nodes      int   `json:"nodes"`
	Claims     int64 `json:"claims"`
	Barriers   int64 `json:"barriers"`
	Refines    int64 `json:"refines"`
	SinceEpoch int64 `json:"since_epoch"`
	Sources    int64 `json:"sources"`
}

// Stats never blocks on in-flight ingest or barriers.
func (r *Router) Stats() Stats {
	return Stats{
		Nodes:      len(r.cfg.Nodes),
		Claims:     r.statClaims.Load(),
		Barriers:   r.statBarriers.Load(),
		Refines:    r.statRefines.Load(),
		SinceEpoch: r.statSince.Load(),
		Sources:    r.statSources.Load(),
	}
}

// NodeStatus is one member's view in a Health or Ready report.
type NodeStatus struct {
	Partition int             `json:"partition"`
	Node      string          `json:"node"`
	OK        bool            `json:"ok"`
	Error     string          `json:"error,omitempty"`
	Detail    json.RawMessage `json:"detail,omitempty"`
}

// probeTimeout bounds one health probe: probes must answer fast even
// when a member hangs.
const probeTimeout = 2 * time.Second

// probe issues one non-retried GET (a liveness probe that retried
// would report stale truth).
func (r *Router) probe(ctx context.Context, partition int, url string) NodeStatus {
	st := NodeStatus{Partition: partition, Node: url[:strings.LastIndex(url, "/")]}
	ctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		st.Error = err.Error()
		return st
	}
	resp, err := r.hc.Do(req)
	if err != nil {
		st.Error = err.Error()
		return st
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if json.Valid(body) {
		st.Detail = json.RawMessage(body)
	}
	if resp.StatusCode != http.StatusOK {
		st.Error = "status " + strconv.Itoa(resp.StatusCode)
		return st
	}
	st.OK = true
	return st
}

// Health probes every node's /healthz. The cluster is "ok" when all
// nodes answer, "degraded" otherwise; the per-partition detail says
// which partitions are dark. Probes never take the router lock.
func (r *Router) Health(ctx context.Context) (string, []NodeStatus) {
	return r.probeAll(ctx, "/v1/healthz")
}

// Ready probes every node's /readyz: "ready" when every partition can
// take load, "degraded" when some can, "unavailable" when none can.
func (r *Router) Ready(ctx context.Context) (string, []NodeStatus) {
	status, nodes := r.probeAll(ctx, "/v1/readyz")
	if status == "ok" {
		status = "ready"
	}
	return status, nodes
}

func (r *Router) probeAll(ctx context.Context, path string) (string, []NodeStatus) {
	nodes := make([]NodeStatus, len(r.cfg.Nodes))
	var wg sync.WaitGroup
	for i, node := range r.cfg.Nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			nodes[i] = r.probe(ctx, i, node+path)
		}()
	}
	wg.Wait()
	up := 0
	for _, st := range nodes {
		if st.OK {
			up++
		}
	}
	r.met.DownPartitions.Set(float64(len(nodes) - up))
	switch up {
	case len(nodes):
		return "ok", nodes
	case 0:
		return "unavailable", nodes
	default:
		return "degraded", nodes
	}
}

// post issues one mutating request to node j's path through the
// retrying client and fails on any non-2xx answer with the node's
// error text. Callers hold mu: the answer is read into node j's own
// buffer, which the next post to j reuses, so posts to different nodes
// can run at the same time.
func (r *Router) post(ctx context.Context, j int, path, contentType, seq string, body []byte) ([]byte, error) {
	url := r.cfg.Nodes[j] + path
	resp, err := r.client.Post(ctx, url, contentType, seq, body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	buf := &r.respBufs[j]
	buf.Reset()
	_, rerr := buf.ReadFrom(io.LimitReader(resp.Body, 256<<20))
	data := buf.Bytes()
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(data))
	}
	if rerr != nil {
		return nil, fmt.Errorf("%s: reading response: %w", url, rerr)
	}
	return data, nil
}

// get issues one read through the retrying client.
func (r *Router) get(ctx context.Context, url string) ([]byte, error) {
	resp, err := r.client.Get(ctx, url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, rerr := io.ReadAll(io.LimitReader(resp.Body, 256<<20))
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(data))
	}
	if rerr != nil {
		return nil, fmt.Errorf("%s: reading response: %w", url, rerr)
	}
	return data, nil
}
