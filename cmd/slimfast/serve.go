// The node backend of the /v1 surface (api.go) behind `slimfast stream
// -listen`: the HTTP API over one sharded engine, so the streaming
// reproduction runs as a long-lived service — claims arrive over the
// wire, estimates are queried live, and the engine state survives
// restarts through generation-rotated checkpoints and the SIGTERM
// handler.
//
// Beyond the shared routes a node mounts the member half of cluster
// mode (see internal/cluster and `slimfast router`):
//
//	POST /v1/epoch/drain hand the router the settled evidence deltas
//	POST /v1/epoch/mass  hand the router one exact refine sweep's mass
//	POST /v1/epoch/apply install a pushed σ-table
//
// They are idempotent by coordinator tag, serialized on the ingest
// lock, and refused (409) by engines running the online learner. On a
// member started with -external-epochs, POST /v1/refine is refused
// (409) — the router coordinates cluster-wide refines.
//
// Ingest requests are serialized: for a fixed sequence of /v1/observe
// bodies the engine state (and so the /v1/estimates bytes) is
// identical run to run and across checkpoint/restore restarts — the
// property the e2e restart job in CI pins down. A bad row answers 400
// after the claims before it were ingested; the error says how many.
//
// The server is overload-safe by construction: an admission gate
// bounds in-flight ingest bytes and requests (excess is shed with
// 429 + Retry-After before any body is read), -request-timeout bounds
// how long one request may trickle its body or wait on the ingest
// lock (503 + Retry-After, code "timeout"), and every handler runs
// inside panic recovery so a poisoned request becomes a logged 500,
// not a dead service.
package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strconv"
	"time"

	"slimfast/internal/obs"
	"slimfast/internal/query"
	"slimfast/internal/resilience"
	"slimfast/internal/stream"
)

// serveConfig carries the serving-mode knobs from the flag set.
type serveConfig struct {
	Batch int

	// Store is the generation-rotated checkpoint store; nil disables
	// the /checkpoint endpoint, periodic checkpointing and the final
	// shutdown checkpoint.
	Store *stream.CheckpointStore

	// CheckpointEvery enables periodic background checkpointing at
	// this cadence (0 = only on demand and at shutdown).
	CheckpointEvery time.Duration

	// RequestTimeout bounds one request end to end: the body read
	// deadline and the wait for the ingest lock. 0 = no deadline.
	RequestTimeout time.Duration

	// Admission budgets: maximum concurrent in-flight ingest bytes and
	// requests before /observe sheds with 429. <= 0 = unbounded.
	MaxInflightBytes int64
	MaxInflightReqs  int64

	// Registry is the metrics registry GET /v1/metrics scrapes; nil
	// gets a fresh one (the HTTP families still register and serve).
	Registry *obs.Registry

	// LogFormat selects the structured-log encoding: "text" (default)
	// or "json".
	LogFormat string
}

// streamServer is the node backend: the engine plus its admission
// gate, ingest lock, epoch caches and checkpoint store.
type streamServer struct {
	*server
	eng  *stream.Engine
	cfg  serveConfig
	gate *resilience.Gate
	// lock serializes ingest, refine and checkpoint requests — the
	// channel form of a mutex, so acquisition can honor a request
	// deadline. Queries stay lock-free (the engine is concurrent-safe);
	// the lock exists so a replayed request sequence deterministically
	// reproduces the same engine state and checkpoints land on request
	// boundaries.
	lock chan struct{}

	// Single-entry response caches for the /epoch coordination
	// endpoints, keyed by the router's barrier tag and guarded by the
	// ingest lock. Draining is destructive, so a router retry whose
	// first response was lost must get the cached drain back instead of
	// draining (now-empty) vectors a second time.
	drainCache epochCache
	massCache  epochCache
	applyCache epochCache

	// ingestBuf is the Batch-sized claim buffer /v1/observe fills and
	// hands to ObserveBatch, reused across requests under the ingest
	// lock.
	ingestBuf []stream.Triple
}

// epochCache replays the response of an idempotent-by-tag exchange.
type epochCache struct {
	tag  string
	resp any
}

func newStreamServer(eng *stream.Engine, cfg serveConfig, logw io.Writer) *streamServer {
	if cfg.Batch < 1 {
		cfg.Batch = 1
	}
	s := &streamServer{
		eng:       eng,
		cfg:       cfg,
		gate:      resilience.NewGate(cfg.MaxInflightBytes, cfg.MaxInflightReqs),
		lock:      make(chan struct{}, 1),
		ingestBuf: make([]stream.Triple, 0, cfg.Batch),
	}
	s.server = newServer(s, logw, cfg.Registry, cfg.LogFormat, "serve")
	s.bodyTimeout = cfg.RequestTimeout
	return s
}

// acquireIngest takes the ingest lock, giving up when ctx expires.
func (s *streamServer) acquireIngest(ctx context.Context) bool {
	select {
	case s.lock <- struct{}{}:
		return true
	default:
	}
	select {
	case s.lock <- struct{}{}:
		return true
	case <-ctx.Done():
		return false
	}
}

func (s *streamServer) releaseIngest() { <-s.lock }

// lockTimeout reports a request that gave up waiting for the ingest
// lock: 503 + Retry-After like shedding, but with code "timeout" — the
// deadline expired, the server is not necessarily saturated.
func (s *streamServer) lockTimeout(op string) error {
	s.ins.met.timeouts.Inc()
	return &apiError{status: http.StatusServiceUnavailable, code: "timeout",
		msg: op + ": timed out waiting for the ingest lock; retry with backoff"}
}

// requestContext derives the deadline-bounded context for one request
// when -request-timeout is set.
func (s *streamServer) requestContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if s.cfg.RequestTimeout <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, s.cfg.RequestTimeout)
}

// observe ingests a claim body in fixed-size deterministic batches,
// exactly like the CLI ingest loop.
//
// Requests stamped with an idempotency key (X-Batch-Seq header or
// ?seq=) are exactly-once within the engine's dedup window: a
// retried delivery of an already-ingested batch is acknowledged
// without re-ingesting, and the window rides inside checkpoints so
// the guarantee holds across restarts.
func (s *streamServer) observe(r *http.Request, seq string, read func() ([]byte, error)) (any, error) {
	// Admission first, before a byte of body is read: reserve the
	// declared Content-Length against the in-flight budget and shed
	// with 429 when the server is saturated.
	n := r.ContentLength
	if n < 0 {
		n = 1 << 20 // chunked body: reserve a nominal slot
	}
	release, err := s.gate.Acquire(n)
	if err != nil {
		s.ins.met.shed.Inc()
		return nil, errStatus(http.StatusTooManyRequests, "observe: server saturated; retry with backoff")
	}
	defer release()

	if seq != "" && s.eng.SeqSeen(seq) {
		// Fast path for retry storms: drop the duplicate before the
		// body read and the lock. The authoritative check still happens
		// under the lock below for requests that race here.
		return s.deduped(seq), nil
	}

	ctx, cancel := s.requestContext(r.Context())
	defer cancel()
	// Read the whole body before taking the ingest lock: the lock is
	// held at request granularity (the determinism unit), and a client
	// trickling its body must not wedge every other ingest and
	// checkpoint request behind it.
	body, err := read()
	if err != nil {
		return nil, err
	}
	if !s.acquireIngest(ctx) {
		return nil, s.lockTimeout("observe")
	}
	defer s.releaseIngest()

	// Authoritative dedup, now that we hold the lock: of two racing
	// deliveries of the same key, exactly one ingests. A key is marked
	// before ingest so a mid-body 400 (claims before the bad row are
	// already in) is not re-applied by a confused retry.
	if seq != "" && !s.eng.MarkSeq(seq) {
		return s.deduped(seq), nil
	}

	buf := s.ingestBuf[:0]
	var ingested int64
	flush := func() {
		if len(buf) > 0 {
			s.eng.ObserveBatch(buf)
			ingested += int64(len(buf))
			clear(buf) // drop the strings: an idle buffer must not pin request bodies
			buf = buf[:0]
		}
	}
	err = parseClaimBody(body, r.Header.Get("Content-Type"), func(tr stream.Triple) error {
		buf = append(buf, tr)
		if len(buf) == cap(buf) {
			flush()
		}
		return nil
	})
	flush()
	if err != nil {
		// Claims before the bad row are already ingested; report both.
		return nil, errStatus(http.StatusBadRequest, "observe: %v (ingested %d claims before the error)", err, ingested)
	}
	// The one info-level record per ingest request: with the request ID
	// attached by the middleware, this is what makes a router fan-out
	// followable across member logs.
	requestLogger(ctx, s.log).LogAttrs(ctx, slog.LevelInfo, "ingested claims",
		slog.Int64("claims", ingested), slog.String("seq", seq))
	return ingestReply(ingested, s.eng.Observations()), nil
}

// deduped acknowledges an already-ingested idempotency key.
func (s *streamServer) deduped(seq string) any {
	s.ins.met.dedupReplays.Inc()
	return dedupReply(seq, s.eng.Observations())
}

// The member replies below are the bytes json.Encoder writes for the
// map in each comment: keys sorted, strings HTML-escaped, a trailing
// newline.

// ingestReply: {"ingested": ingested, "observations": obs}.
func ingestReply(ingested, obs int64) encodedJSON {
	b := append(make([]byte, 0, 64), `{"ingested":`...)
	b = strconv.AppendInt(b, ingested, 10)
	b = append(b, `,"observations":`...)
	b = strconv.AppendInt(b, obs, 10)
	return append(b, "}\n"...)
}

// dedupReply: {"deduped": true, "ingested": 0, "observations": obs,
// "seq": seq}.
func dedupReply(seq string, obs int64) encodedJSON {
	b := append(make([]byte, 0, 80+len(seq)), `{"deduped":true,"ingested":0,"observations":`...)
	b = strconv.AppendInt(b, obs, 10)
	b = append(b, `,"seq":`...)
	b = stream.AppendJSONString(b, seq)
	return append(b, "}\n"...)
}

// applyReply: {"applied": applied, "epoch": epoch, "tag": tag}.
func applyReply(tag string, epoch int64, applied int) encodedJSON {
	b := append(make([]byte, 0, 64+len(tag)), `{"applied":`...)
	b = strconv.AppendInt(b, int64(applied), 10)
	b = append(b, `,"epoch":`...)
	b = strconv.AppendInt(b, epoch, 10)
	b = append(b, `,"tag":`...)
	b = stream.AppendJSONString(b, tag)
	return append(b, "}\n"...)
}

func (s *streamServer) estimates(_ context.Context, q *query.Query, partial bool) (*query.Result, error) {
	exec := query.Execute
	if partial {
		exec = query.ExecutePartial
	}
	res, err := exec(s.eng, q)
	if err != nil {
		return nil, errStatus(http.StatusBadRequest, "estimates: %v", err)
	}
	return res, nil
}

func (s *streamServer) sources(context.Context) (*query.Relation, error) {
	return sourcesRelation(s.eng), nil
}

// sourcesRelation materializes the source accuracy table, sorted by
// source. Online engines report the full decomposition — the served
// accuracy plus the feature-model ("learned") and agreement-only
// ("empirical") estimates it blends — so an operator can see what the
// features are contributing. The CLI's -accuracies output writes the
// same relation, so a served engine and a batch run produce
// comparable bytes.
func sourcesRelation(eng *stream.Engine) *query.Relation {
	online := eng.OnlineLearning()
	rel := &query.Relation{Cols: []query.Column{
		{Name: "source", Kind: query.KindString},
		{Name: "accuracy", Kind: query.KindFloat},
	}}
	if online {
		rel.Cols = append(rel.Cols, query.Column{Name: "learned", Kind: query.KindFloat}, query.Column{Name: "empirical", Kind: query.KindFloat})
	}
	str := func(s string) query.Val { return query.Val{Kind: query.KindString, Str: s} }
	num := func(f float64) query.Val { return query.Val{Kind: query.KindFloat, Num: f} }
	for _, s := range eng.Sources() {
		if !online {
			rel.Rows = append(rel.Rows, []query.Val{str(s), num(eng.SourceAccuracy(s))})
		} else if acc, learned, empirical, ok := eng.SourceAccuracyDetail(s); ok {
			rel.Rows = append(rel.Rows, []query.Val{str(s), num(acc), num(learned), num(empirical)})
		}
	}
	return rel
}

// features exposes the online learner's model — the intercept plus
// every feature's learned weight — so an operator can see what the
// discriminative layer has learned without a checkpoint dump. Engines
// without an online learner answer 409, matching how /checkpoint
// reports a missing -checkpoint path.
func (s *streamServer) features(_ context.Context, w io.Writer) error {
	intercept, feats, ok := s.eng.FeatureWeights()
	if !ok {
		return errStatus(http.StatusConflict, "features: engine has no online learner (start with -features)")
	}
	return writeFeatureWeightsCSV(w, intercept, feats)
}

// refine runs Engine.Refine under the ingest lock: the engine itself
// is safe to refine during ingest, but serializing on request
// boundaries keeps a replayed request sequence deterministic, like
// /observe and /checkpoint. A refine storm therefore queues on the
// lock — with -request-timeout set, the queue sheds itself with 503s
// instead of piling up.
func (s *streamServer) refine(ctx context.Context, sweeps int) (any, error) {
	if s.eng.ExternalEpochs() {
		// A member-local refine would rebuild σ from this partition's
		// mass alone and silently fork the cluster's accuracy state.
		return nil, errStatus(http.StatusConflict,
			"refine: this node's epochs are externally coordinated (-external-epochs); POST /v1/refine on the router")
	}
	ctx, cancel := s.requestContext(ctx)
	defer cancel()
	if !s.acquireIngest(ctx) {
		return nil, s.lockTimeout("refine")
	}
	defer s.releaseIngest()
	s.eng.Refine(sweeps)
	st := s.eng.Stats()
	return map[string]any{
		"sweeps":       sweeps,
		"epoch":        st.Epoch,
		"observations": st.Observations,
	}, nil
}

// checkpoint durably checkpoints the engine as a new generation and
// reports where the bytes went.
func (s *streamServer) checkpoint(ctx context.Context) (any, error) {
	if s.cfg.Store == nil {
		return nil, errStatus(http.StatusConflict, "no -checkpoint path configured")
	}
	ctx, cancel := s.requestContext(ctx)
	defer cancel()
	if !s.acquireIngest(ctx) {
		return nil, s.lockTimeout("checkpoint")
	}
	defer s.releaseIngest()
	if err := s.cfg.Store.Write(s.eng); err != nil {
		return nil, err
	}
	path := s.cfg.Store.Path()
	var size int64
	if fi, err := os.Stat(path); err == nil {
		size = fi.Size()
	}
	fmt.Fprintf(s.logw, "# checkpoint written to %s (%d bytes)\n", path, size)
	return map[string]any{
		"path":        path,
		"bytes":       size,
		"generations": s.cfg.Store.Keep(),
	}, nil
}

// health reports liveness plus the engine counters; readiness (can the
// server take more load?) is ready's job.
func (s *streamServer) health(context.Context) any {
	st := s.eng.Stats()
	return map[string]any{
		"status":       "ok",
		"shards":       st.Shards,
		"sources":      st.Sources,
		"objects":      st.Objects,
		"observations": st.Observations,
		"epoch":        st.Epoch,
		"evicted":      st.EvictedObjects,
	}
}

// ready reports admission pressure: the in-flight counters, and
// "overloaded" (503) while the gate is saturated, so a load balancer
// rotates the replica out before its clients see 429s.
func (s *streamServer) ready(context.Context) (map[string]any, string) {
	reqs, inflight, shed := s.gate.Pressure()
	body := map[string]any{
		"status":            "ready",
		"inflight_requests": reqs,
		"inflight_bytes":    inflight,
		"shed_total":        shed,
	}
	if s.gate.Saturated() {
		body["status"] = "overloaded"
		return body, "server saturated; retry with backoff"
	}
	return body, ""
}

// routes mounts the cluster control plane.
func (s *streamServer) routes() map[string]func(context.Context, []byte) (any, error) {
	return map[string]func(context.Context, []byte) (any, error){
		// drain hands the coordinator this engine's settled evidence
		// deltas since the last drain — the cluster form of the shard
		// drain an epoch refresh starts with.
		"POST /v1/epoch/drain": s.epoch(&s.drainCache, func(req stream.EpochRequest) (any, error) {
			stats, err := s.eng.DrainDeltas()
			return statsReply(req.Tag, stats, err)
		}),
		// mass hands the coordinator one Refine sweep's exact
		// per-source posterior mass (evicted base included).
		"POST /v1/epoch/mass": s.epoch(&s.massCache, func(req stream.EpochRequest) (any, error) {
			stats, err := s.eng.RefineMass()
			return statsReply(req.Tag, stats, err)
		}),
		// apply installs the coordinator's merged accuracy table as the
		// new frozen σ-table; with "rescore" every live object is
		// rescored eagerly (the re-sweep half of a distributed Refine).
		"POST /v1/epoch/apply": s.epoch(&s.applyCache, func(req stream.EpochRequest) (any, error) {
			if err := s.eng.ApplyAccuracies(req.Accuracies, req.Rescore); err != nil {
				return nil, err
			}
			return applyReply(req.Tag, s.eng.CurrentEpoch(), len(req.Accuracies)), nil
		}),
	}
}

// statsReply renders a drain or mass answer as its canonical reply
// bytes (stream.AppendEpochReply) before any header is written, so the
// epoch cache replays those very bytes and an unencodable statistic
// answers 500 instead of a truncated 200.
func statsReply(tag string, stats []stream.SourceStat, err error) (any, error) {
	if err != nil {
		return nil, err
	}
	b, err := stream.AppendEpochReply(make([]byte, 0, 64+72*len(stats)), tag, stats)
	if err != nil {
		return nil, errStatus(http.StatusInternalServerError, "epoch: encoding reply: %v", err)
	}
	return encodedJSON(b), nil
}

// epoch wraps one coordination exchange: parse the body (canonical
// bodies through stream.DecodeEpochRequest's fast path), take the
// ingest lock (coordination moves are request-serialized like
// everything that mutates the engine), replay the cached response when
// the tag matches, otherwise execute and cache. Engines running the
// online learner refuse with 409.
func (s *streamServer) epoch(cache *epochCache, exec func(req stream.EpochRequest) (any, error)) func(context.Context, []byte) (any, error) {
	return func(ctx context.Context, body []byte) (any, error) {
		var req stream.EpochRequest
		if len(bytes.TrimSpace(body)) > 0 {
			var err error
			if req, err = stream.DecodeEpochRequest(body); err != nil {
				return nil, errStatus(http.StatusBadRequest, "epoch: parsing body: %v", err)
			}
		}
		ctx, cancel := s.requestContext(ctx)
		defer cancel()
		if !s.acquireIngest(ctx) {
			return nil, s.lockTimeout("epoch")
		}
		defer s.releaseIngest()
		if req.Tag != "" && req.Tag == cache.tag {
			return cache.resp, nil
		}
		resp, err := exec(req)
		var ae *apiError
		switch {
		case errors.Is(err, stream.ErrOnlineUnsupported):
			return nil, errStatus(http.StatusConflict, "%v", err)
		case errors.As(err, &ae):
			return nil, err
		case err != nil:
			return nil, errStatus(http.StatusBadRequest, "%v", err)
		}
		if req.Tag != "" {
			cache.tag, cache.resp = req.Tag, resp
		}
		return resp, nil
	}
}

// start begins periodic checkpointing when configured.
func (s *streamServer) start(ctx context.Context) {
	if s.cfg.Store != nil && s.cfg.CheckpointEvery > 0 {
		go s.checkpointLoop(ctx, s.cfg.CheckpointEvery)
	}
}

// stop writes the final checkpoint generation, so the next -restore
// boot resumes exactly here. Checkpointing is safe concurrent with
// ingest, so a drain timeout does not prevent it.
func (s *streamServer) stop() error {
	if s.cfg.Store == nil {
		return nil
	}
	if err := s.cfg.Store.Write(s.eng); err != nil {
		return err
	}
	fmt.Fprintf(s.logw, "# shutdown checkpoint written to %s (%d observations)\n", s.cfg.Store.Path(), s.eng.Stats().Observations)
	return nil
}

// checkpointLoop runs periodic background checkpointing: every tick
// it takes the ingest lock (so generations land on request
// boundaries), writes a generation, and on failure retries with
// exponential backoff instead of silently skipping ticks — a full
// disk gets retried until space returns or the server stops.
func (s *streamServer) checkpointLoop(ctx context.Context, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	bo := resilience.NewBackoff(1)
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		for {
			if !s.acquireIngest(ctx) {
				return
			}
			err := s.cfg.Store.Write(s.eng)
			s.releaseIngest()
			if err == nil {
				bo.Reset()
				fmt.Fprintf(s.logw, "# periodic checkpoint written to %s\n", s.cfg.Store.Path())
				break
			}
			d := bo.Next()
			s.log.Warn("periodic checkpoint failed",
				slog.Any("error", err), slog.Duration("retry_in", d))
			if !resilienceSleep(ctx, d) {
				return
			}
		}
	}
}

// resilienceSleep waits d unless ctx ends first.
func resilienceSleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
