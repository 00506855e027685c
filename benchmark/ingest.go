package main

import (
	"strconv"
	"time"

	"slimfast/internal/stream"
)

// ingest sends a fresh `slimfast stream` server the whole claim stream
// as 64-claim NDJSON requests. It loads http (body read, NDJSON decode,
// logging) and stream (ObserveBatch, epoch σ refresh) and bypasses
// query and core. The server runs agreement-only: with -features the
// online learner drives this stream's fused accuracy below chance
// (see LAYERS.md), which would fail the accuracy check on every run.
// The traced run replays the stream through the learner in process, so
// its cost and its accuracy are still measured.
func ingest() *workload {
	return &workload{
		name: "ingest",
		measures: append(append([]string(nil), e2eMetrics...), "claims_per_s", "observe_p50_ms", "observe_p99_ms",
			"load.generator_gomaxprocs", "load.connections", "load.server_shards", "load.server_workers"),
		layers: []string{"stream.batch_us_p50", "stream.refresh_batch_us_p50", "stream.epochs", "stream.ns_per_claim",
			"stream.learner_batch_us_p50", "stream.learner_refresh_batch_us_p50", "stream.learner_accuracy",
			"stream.featureless_accuracy",
			"http.observe_us_per_req", "http.observe_share", "http.observe_cpu_us_per_req", "trace.replay_ms",
			"trace.overhead_share", "load.generator_gomaxprocs", "load.connections", "load.server_shards", "load.server_workers"},
		run:   runIngest,
		trace: traceIngest,
	}
}

// ingestObjectsPerSecond sizes the stream: --seconds 10 gives 100k
// objects, about 840k claims in 13k requests.
const ingestObjectsPerSecond = 10000

// ingestWindow is the number of requests per throughput/CPU window.
const ingestWindow = 500

// servingAccuracyFloor is the lowest fused accuracy a correct engine
// reaches on the generated serving streams.
const servingAccuracyFloor = 0.85

// ingestPass is one untraced pass of the ingest stream through a
// server.
type ingestPass struct {
	ph      *phase
	setup   float64
	export  []byte
	scraped map[string]float64
	dials   int64
	claims  int
}

func serveIngest(e *env, cs *claimStream) (*ingestPass, error) {
	args := []string{"stream", "-listen", "127.0.0.1:0", "-shards", strconv.Itoa(serverShards),
		"-workers", strconv.Itoa(serverWorkers)}
	srvs, setup, err := startRepeated(setupRepeats, func() ([]*server, time.Duration, error) {
		s, d, err := startServer(e.bin, args)
		if err != nil {
			return nil, 0, err
		}
		return []*server{s}, d, nil
	})
	if err != nil {
		return nil, err
	}
	defer stopAll(srvs)
	base := srvs[0].addr
	reqs := requests(cs.claims)
	bodies := make([][]byte, len(reqs))
	for i, r := range reqs {
		bodies[i] = ndjsonBody(r)
	}
	c := newClient()
	defer c.close()
	ph, err := beginPhase(pids(srvs), ingestWindow)
	if err != nil {
		return nil, err
	}
	for i, b := range bodies {
		d, err := observe(c, base, "application/x-ndjson", seqKey("ingest", i), b)
		if err != nil {
			ph.end()
			return nil, err
		}
		if err := ph.done("observe", d); err != nil {
			ph.end()
			return nil, err
		}
	}
	ph.end()
	p := &ingestPass{ph: ph, setup: setup, claims: len(cs.claims)}
	if p.export, err = c.get(base + "/v1/estimates"); err != nil {
		return nil, err
	}
	if p.scraped, err = scrape(c, base); err != nil {
		return nil, err
	}
	p.dials = c.dials.Load()
	return p, stopAll(srvs)
}

// observeOne feeds eng one request exactly as the server does: mark
// the idempotency key, then one ObserveBatch of the request body. The
// request is an op span; its engine call is a child span named by
// whether it advanced the engine's epoch (ran a σ refresh) or not.
func observeOne(tr *Tracer, eng *stream.Engine, req []stream.Triple, seq string) {
	op := tr.Begin("observe", 0, 0)
	eng.MarkSeq(seq)
	before := eng.CurrentEpoch()
	id := tr.Begin("stream.observe_batch", op, tr.traceOf(op))
	tr.Count("stream.claims", len(req))
	eng.ObserveBatch(req)
	tr.End(id)
	if eng.CurrentEpoch() != before {
		tr.rename(id, "stream.refresh_batch")
	}
	tr.End(op)
}

// replay feeds eng every request in order, keyed like the client keys
// them.
func replay(tr *Tracer, eng *stream.Engine, reqs [][]stream.Triple, workload string) {
	for i, r := range reqs {
		tr.Op()
		observeOne(tr, eng, r, seqKey(workload, i))
	}
}

// checkIngestServer runs the checks shared by the untraced and the
// traced run: accuracy floor, the export digest equal to the reference
// engine's and to earlier runs', and the server's own counters.
func checkIngestServer(e *env, res *result, cs *claimStream, p *ingestPass, ref *stream.Engine) (float64, error) {
	acc, err := estimatesAccuracy(p.export, cs.gold)
	if err != nil {
		return 0, err
	}
	want, err := exportCSV(ref)
	if err != nil {
		return 0, err
	}
	dig := exportDigest(p.export)
	if err := res.check(acc >= servingAccuracyFloor, "ingest: fused accuracy %.4f >= %.2f", acc, servingAccuracyFloor); err != nil {
		return 0, err
	}
	if err := res.check(dig == exportDigest(want), "ingest: server export digest %s (rows sorted) equals query.Write of the in-process engine", dig[:12]); err != nil {
		return 0, err
	}
	ok, msg, err := e.expectation("ingest", map[string]string{"digest": dig})
	if err != nil {
		return 0, err
	}
	if err := res.check(ok, "ingest: export digest %s", msg); err != nil {
		return 0, err
	}
	obs := sumFamily(p.scraped, "slimfast_engine_observations_total")
	if err := res.check(obs == float64(p.claims), "ingest: server counted %v observations, %d claims sent", obs, p.claims); err != nil {
		return 0, err
	}
	refreshes, epochs := sumFamily(p.scraped, "slimfast_engine_epoch_refreshes_total"), ref.CurrentEpoch()
	if err := res.check(refreshes == float64(epochs), "ingest: server ran %v epoch refreshes, in-process engine %d", refreshes, epochs); err != nil {
		return 0, err
	}
	if err := checkNoShed(res, "ingest server", p.scraped); err != nil {
		return 0, err
	}
	return acc, res.check(p.dials == 1, "ingest: one client connection (opened %d)", p.dials)
}

func runIngest(e *env) (*result, error) {
	cs, err := genClaims(e.seed, ingestObjectsPerSecond*e.seconds)
	if err != nil {
		return nil, err
	}
	p, err := serveIngest(e, cs)
	if err != nil {
		return nil, err
	}
	res := newResult()
	res.attempted = len(p.ph.all)
	ref, err := stream.NewEngine(engineOptions())
	if err != nil {
		return nil, err
	}
	replay(newTracer(false), ref, requests(cs.claims), "ingest")
	acc, err := checkIngestServer(e, res, cs, p, ref)
	if err != nil {
		return nil, err
	}
	ops, nw := p.ph.opsPerS()
	cpu, nc := p.ph.cpuPerOp(0)
	res.set("setup_s", p.setup, "s", setupRepeats)
	res.set("claims_per_s", ops*claimsPerRequest, "1/s", nw)
	if err := p.ph.latency(res, "observe", "observe", true); err != nil {
		return nil, err
	}
	res.set("op_p50_ms", res.metrics["observe_p50_ms"].Value, "ms", len(p.ph.all))
	res.set("cpu_us_per_op", cpu, "us", nc)
	rss, nr := p.ph.peakRSS()
	res.set("peak_rss_mb", rss, "MB", nr)
	res.set("fused_accuracy", acc, "fraction", 1)
	setSuccess(res)
	setLoad(res, serverShards, serverWorkers, p.dials)
	return res, nil
}

func traceIngest(e *env) (*result, error) {
	cs, err := genClaims(e.seed, ingestObjectsPerSecond*e.seconds)
	if err != nil {
		return nil, err
	}
	// The untraced server pass gives the server's CPU per request, the
	// base the in-process stream time is subtracted from.
	p, err := serveIngest(e, cs)
	if err != nil {
		return nil, err
	}
	res := newResult()
	reqs := requests(cs.claims)
	ref, err := stream.NewEngine(engineOptions())
	if err != nil {
		return nil, err
	}
	tr := alternatingTracer(ingestWindow)
	replay(tr, ref, reqs, "ingest")
	res.attempted = len(p.ph.all) + len(reqs)
	spans := tr.Spans()
	if _, err := checkIngestServer(e, res, cs, p, ref); err != nil {
		return nil, err
	}
	if err := writeSpans(spanFile(e, "ingest"), spans); err != nil {
		return nil, err
	}
	perBatch := streamLayer(res, tr, ref.CurrentEpoch())
	refresh := durations(spans, "stream.refresh_batch")
	res.set("stream.refresh_batch_us_p50", median(refresh)/1e3, "us", len(refresh))
	serverCPU, nc := p.ph.cpuPerOp(0)
	httpUS, share := subtractLayer(serverCPU, perBatch)
	res.set("http.observe_cpu_us_per_req", serverCPU, "us", nc)
	res.set("http.observe_us_per_req", httpUS, "us", nc)
	res.set("http.observe_share", share, "fraction", nc)
	setOverhead(res, tr)
	setLoad(res, serverShards, serverWorkers, p.dials)
	if err := learnerLayer(e, res, cs, reqs); err != nil {
		return nil, err
	}
	return res, featurelessAccuracy(e, res)
}

// learnerLayer replays the requests through an engine with the online
// learner on and the stream's source feature table, as `slimfast
// stream -features` runs them. The learner works at epoch refresh, so
// its cost is the gap between stream.learner_refresh_batch_us_p50 and
// stream.refresh_batch_us_p50. Its fused accuracy is reported and not
// gated: on this stream the learner drives it below chance, a defect
// of the program that every traced run shows.
func learnerLayer(e *env, res *result, cs *claimStream, reqs [][]stream.Triple) error {
	opts := engineOptions()
	opts.Features = cs.features
	opts.OnlineLearn = true
	eng, err := stream.NewEngine(opts)
	if err != nil {
		return err
	}
	tr := newTracer(true)
	replay(tr, eng, reqs, "ingest")
	res.attempted += len(reqs)
	spans := tr.Spans()
	plain, refresh := durations(spans, "stream.observe_batch"), durations(spans, "stream.refresh_batch")
	res.set("stream.learner_batch_us_p50", median(plain)/1e3, "us", len(plain))
	res.set("stream.learner_refresh_batch_us_p50", median(refresh)/1e3, "us", len(refresh))
	acc, err := engineAccuracy(eng, cs.gold)
	if err != nil {
		return err
	}
	res.set("stream.learner_accuracy", acc, "fraction", len(cs.gold))
	return writeSpans(spanFile(e, "ingest-learner"), spans)
}

// featurelessAccuracy feeds the agreement-only engine a stream shaped
// like ingest's whose source accuracies do not follow the sources'
// features, and records its fused accuracy, not gated. The served
// stream's accuracies follow features as in the paper's simulators;
// on this one the engine falls below majority vote, a defect of the
// program that every traced run shows.
func featurelessAccuracy(e *env, res *result) error {
	cfg := streamConfig(e.seed, ingestObjectsPerSecond*e.seconds)
	cfg.Features = nil
	cs, err := genStream(cfg)
	if err != nil {
		return err
	}
	eng, err := stream.NewEngine(engineOptions())
	if err != nil {
		return err
	}
	reqs := requests(cs.claims)
	replay(newTracer(false), eng, reqs, "featureless")
	res.attempted += len(reqs)
	acc, err := engineAccuracy(eng, cs.gold)
	if err != nil {
		return err
	}
	res.set("stream.featureless_accuracy", acc, "fraction", len(cs.gold))
	return nil
}

// engineAccuracy scores an in-process engine's estimates against gold.
func engineAccuracy(eng *stream.Engine, gold map[string]string) (float64, error) {
	csv, err := exportCSV(eng)
	if err != nil {
		return 0, err
	}
	return estimatesAccuracy(csv, gold)
}

// streamLayer sets the stream.* metrics from the replay's spans and
// counts, and returns the mean engine time per request in
// microseconds.
func streamLayer(res *result, tr *Tracer, epochs int64) float64 {
	spans := tr.Spans()
	plain, refresh := durations(spans, "stream.observe_batch"), durations(spans, "stream.refresh_batch")
	var total float64
	for _, d := range append(append([]float64(nil), plain...), refresh...) {
		total += d
	}
	batches := len(plain) + len(refresh)
	claims := tr.counts["stream.claims"]
	res.set("stream.batch_us_p50", median(plain)/1e3, "us", len(plain))
	res.set("stream.epochs", float64(epochs), "count", 1)
	res.set("stream.ns_per_claim", total/float64(claims), "ns", claims)
	if batches == 0 {
		return 0
	}
	return total / float64(batches) / 1e3
}
