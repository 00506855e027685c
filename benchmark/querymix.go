package main

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"slimfast/internal/query"
	"slimfast/internal/randx"
	"slimfast/internal/stream"
)

// query-mix restores a server from a checkpoint of a 100k-object
// engine and runs a fixed cycle of reads, each cycle followed by one
// 64-claim CSV observe. It loads query (lookups prune to one shard,
// scans share all their work between writes), response encoding,
// restore (setup_s) and both claim decoders; it bypasses core.
func queryMix() *workload {
	return &workload{
		name: "query-mix",
		measures: append(append([]string(nil), e2eMetrics...), "queries_per_s", "lookup_p50_ms", "lookup_p99_ms",
			"topk_p50_ms", "group_p50_ms", "export_p50_ms", "observe_p50_ms",
			"load.generator_gomaxprocs", "load.connections", "load.server_shards", "load.server_workers"),
		layers: append(append([]string{"stream.restore_ms", "stream.checkpoint_mb", "stream.batch_us_p50",
			"stream.epochs", "stream.ns_per_claim", "query.parse_us", "trace.replay_ms", "trace.overhead_share",
			"load.generator_gomaxprocs", "load.connections", "load.server_shards", "load.server_workers"},
			layerNames("query.exec_ms", "query.write_ms", "query.rows", "query.bytes")...), layerNames("http.query_ms")...),
		run:   runQueryMix,
		trace: traceQueryMix,
	}
}

const (
	// mixLookups is the number of single-object lookups per cycle.
	mixLookups = 40
	// mixCyclesPerSecond sizes the run: --seconds 10 gives 30 cycles,
	// 1200 lookups, enough for a p99 with 12 samples beyond it.
	mixCyclesPerSecond = 3
	// mixWindowCycles is the number of cycles per throughput, CPU and
	// RSS window. Every cycle has the same mix, so one cycle is a window.
	mixWindowCycles = 1
	// mixObjectsPerSecond sizes the checkpointed engine: 100k objects
	// at --seconds 10.
	mixObjectsPerSecond = 10000
	// restoreSetupRepeats is setupRepeats for a server that restores a
	// checkpoint at start, which takes seconds rather than milliseconds.
	restoreSetupRepeats = 3
)

// mixOp is one request of the cycle.
type mixOp struct {
	class string // lookup, topk, group, export, sources, observe
	vals  url.Values
	body  []stream.Triple // observe only
	cycle int
}

// mixPlan is the generated query-mix input: the claims the checkpoint
// holds, and the fixed operation sequence.
type mixPlan struct {
	cs     *claimStream
	loaded []stream.Triple
	ops    []mixOp
	cycles int
	claims int // claims the ops observe
}

func genQueryMix(e *env) (*mixPlan, error) {
	cs, err := genClaims(e.seed, mixObjectsPerSecond*e.seconds)
	if err != nil {
		return nil, err
	}
	p := &mixPlan{cs: cs, cycles: mixCyclesPerSecond * e.seconds}
	// The writes are the last claims of the stream (its revision tail);
	// the checkpoint holds everything before them.
	writes := len(cs.claims) - p.cycles*claimsPerRequest
	if writes < 0 {
		return nil, fmt.Errorf("stream of %d claims too short for %d cycles", len(cs.claims), p.cycles)
	}
	p.loaded = cs.claims[:writes]
	rng := randx.New(randx.DeriveSeed(e.seed, "query-mix"))
	for c := 0; c < p.cycles; c++ {
		for i := 0; i < mixLookups; i++ {
			o := cs.objects[rng.Intn(len(cs.objects))]
			p.ops = append(p.ops, mixOp{class: "lookup", vals: url.Values{"where": {"object=" + o}}})
		}
		p.ops = append(p.ops,
			mixOp{class: "topk", vals: url.Values{"order": {"-contested"}, "limit": {"10"}}},
			mixOp{class: "group", vals: url.Values{"group": {"value"}, "agg": {"count,avg:confidence"}}},
			mixOp{class: "export", vals: url.Values{}},
			mixOp{class: "sources"},
		)
		lo := writes + c*claimsPerRequest
		p.ops = append(p.ops, mixOp{class: "observe", body: cs.claims[lo : lo+claimsPerRequest], cycle: c})
		p.claims += claimsPerRequest
	}
	return p, nil
}

// opsPerCycle is the request count of one cycle.
const opsPerCycle = mixLookups + 5

// writeCheckpoint builds the engine the server restores from.
func writeCheckpoint(p *mixPlan, path string) error {
	eng, err := stream.NewEngine(engineOptions())
	if err != nil {
		return err
	}
	replay(newTracer(false), eng, requests(p.loaded), "load")
	return eng.WriteCheckpointFile(path)
}

// mixPass is one untraced pass of the query-mix cycle through a server.
type mixPass struct {
	ph        *phase
	queryWins []float64 // queries per second, per window
	setup     float64
	export    []byte
	scraped   map[string]float64
	dials     int64
}

// serveQueryMix starts the server starts times (setup_s is their
// median) and runs the cycle through the last one.
func serveQueryMix(e *env, p *mixPlan, ckpt string, starts int) (*mixPass, error) {
	args := []string{"stream", "-listen", "127.0.0.1:0", "-shards", strconv.Itoa(serverShards),
		"-workers", strconv.Itoa(serverWorkers), "-restore", ckpt}
	srvs, setup, err := startRepeated(starts, func() ([]*server, time.Duration, error) {
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
	bodies := make([][]byte, len(p.ops))
	for i, op := range p.ops {
		if op.class == "observe" {
			bodies[i] = csvBody(op.body)
		}
	}
	c := newClient()
	defer c.close()
	ph, err := beginPhase(pids(srvs), opsPerCycle*mixWindowCycles)
	if err != nil {
		return nil, err
	}
	for i, op := range p.ops {
		var d time.Duration
		switch op.class {
		case "observe":
			d, err = observe(c, base, "text/csv", seqKey("query-mix", op.cycle), bodies[i])
		default:
			path := "/v1/estimates"
			if op.class == "sources" {
				path = "/v1/sources"
			}
			var code int
			var b []byte
			u := base + path
			if q := op.vals.Encode(); q != "" {
				u += "?" + q
			}
			code, b, d, err = c.do(http.MethodGet, u, "", "", nil)
			if err == nil && code != http.StatusOK {
				err = fmt.Errorf("GET %s: %d %s", u, code, b)
			}
		}
		if err == nil {
			err = ph.done(op.class, d)
		}
		if err != nil {
			ph.end()
			return nil, err
		}
	}
	ph.end()
	// Queries per window: every op but the cycle's one observe.
	mp := &mixPass{ph: ph, setup: setup, queryWins: windowRates(ph.t, (opsPerCycle-1)*mixWindowCycles)}
	if mp.export, err = c.get(base + "/v1/estimates"); err != nil {
		return nil, err
	}
	if mp.scraped, err = scrape(c, base); err != nil {
		return nil, err
	}
	mp.dials = c.dials.Load()
	return mp, stopAll(srvs)
}

// checkQueryMix runs the checks shared by both runs: accuracy floor,
// the export digest equal to the reference engine's and to earlier
// runs', and the server's counters.
func checkQueryMix(e *env, res *result, p *mixPlan, mp *mixPass, ref *stream.Engine, epochs int64) (float64, error) {
	acc, err := estimatesAccuracy(mp.export, p.cs.gold)
	if err != nil {
		return 0, err
	}
	want, err := exportCSV(ref)
	if err != nil {
		return 0, err
	}
	dig := exportDigest(mp.export)
	if err := res.check(acc >= servingAccuracyFloor, "query-mix: fused accuracy %.4f >= %.2f", acc, servingAccuracyFloor); err != nil {
		return 0, err
	}
	if err := res.check(dig == exportDigest(want), "query-mix: server export digest %s (rows sorted) equals query.Write of the in-process engine", dig[:12]); err != nil {
		return 0, err
	}
	ok, msg, err := e.expectation("query-mix", map[string]string{"digest": dig})
	if err != nil {
		return 0, err
	}
	if err := res.check(ok, "query-mix: export digest %s", msg); err != nil {
		return 0, err
	}
	obs := sumFamily(mp.scraped, "slimfast_engine_observations_total")
	if err := res.check(obs == float64(p.claims), "query-mix: server counted %v observations, %d claims sent", obs, p.claims); err != nil {
		return 0, err
	}
	refreshes := sumFamily(mp.scraped, "slimfast_engine_epoch_refreshes_total")
	if err := res.check(refreshes == float64(epochs), "query-mix: server ran %v epoch refreshes, in-process engine %d", refreshes, epochs); err != nil {
		return 0, err
	}
	if err := checkNoShed(res, "query-mix server", mp.scraped); err != nil {
		return 0, err
	}
	return acc, res.check(mp.dials == 1, "query-mix: one client connection (opened %d)", mp.dials)
}

// replayMix drives the cycle through query.Parse/Execute/Write and
// Engine.ObserveBatch on a restored engine. Execution pulls every row
// inside the exec span, so the write span times encoding alone. Each
// export also replays the server's own plain-export path (see
// legacyExport), the base of http.query_ms.export. The sources table is
// assembled inside the server's main package and has no layer function
// to call, so its request is skipped here.
func replayMix(tr *Tracer, eng *stream.Engine, p *mixPlan) error {
	var buf bytes.Buffer
	for _, op := range p.ops {
		tr.Op()
		switch op.class {
		case "sources":
			continue
		case "observe":
			// Server-side CSV parsing lands in http; the engine call is
			// the one the ingest replay makes.
			observeOne(tr, eng, op.body, seqKey("query-mix", op.cycle))
			continue
		}
		root := tr.Begin(op.class, 0, 0)
		var q *query.Query
		var rel *query.Relation
		var err error
		tr.Span("query.parse", root, func() { q, err = query.Parse(op.vals, query.EstimateColumns()) })
		if err == nil {
			tr.Span("query.exec."+op.class, root, func() {
				var res *query.Result
				if res, err = query.Execute(eng, q); err == nil {
					rel = query.Materialize(res)
				}
			})
		}
		if err == nil {
			buf.Reset()
			tr.Span("query.write."+op.class, root, func() { err = query.Write(&buf, relationResult(rel), "csv") })
		}
		if err == nil && op.class == "export" {
			tr.Span("stream.estimates_csv", root, func() { err = legacyExport(io.Discard, eng) })
		}
		tr.End(root)
		if err != nil {
			return fmt.Errorf("%s %s: %w", op.class, op.vals.Encode(), err)
		}
		tr.Count("query.ops."+op.class, 1)
		tr.Count("query.rows."+op.class, len(rel.Rows))
		tr.Count("query.bytes."+op.class, buf.Len())
	}
	return nil
}

// legacyExport writes what the server answers a plain GET
// /v1/estimates with: its shard-major scan of Engine.EstimatesSeq
// encoded as CSV with 4-digit confidences, bypassing query. The traced
// run checks these bytes against the server's export.
func legacyExport(w io.Writer, eng *stream.Engine) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"object", "value", "confidence"}); err != nil {
		return err
	}
	for est := range eng.EstimatesSeq() {
		if err := cw.Write([]string{est.Object, est.Value, fmt.Sprintf("%.4f", est.Confidence)}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// relationResult turns a materialized relation back into a Result.
func relationResult(rel *query.Relation) *query.Result {
	return &query.Result{Cols: rel.Cols, Rows: func(yield func([]query.Val) bool) {
		for _, r := range rel.Rows {
			if !yield(r) {
				return
			}
		}
	}}
}

// refEngine restores the checkpoint in process and applies the
// cycle's writes, untraced, for the digest and epoch checks.
func refEngine(ckpt string, p *mixPlan) (*stream.Engine, int64, error) {
	eng, err := stream.RestoreFile(ckpt)
	if err != nil {
		return nil, 0, err
	}
	before := eng.CurrentEpoch()
	for _, op := range p.ops {
		if op.class == "observe" {
			observeOne(newTracer(false), eng, op.body, seqKey("query-mix", op.cycle))
		}
	}
	return eng, eng.CurrentEpoch() - before, nil
}

func runQueryMix(e *env) (*result, error) {
	p, err := genQueryMix(e)
	if err != nil {
		return nil, err
	}
	ckpt := filepath.Join(e.work, "engine.ckpt")
	if err := writeCheckpoint(p, ckpt); err != nil {
		return nil, err
	}
	mp, err := serveQueryMix(e, p, ckpt, restoreSetupRepeats)
	if err != nil {
		return nil, err
	}
	ref, epochs, err := refEngine(ckpt, p)
	if err != nil {
		return nil, err
	}
	res := newResult()
	res.attempted = len(mp.ph.all)
	acc, err := checkQueryMix(e, res, p, mp, ref, epochs)
	if err != nil {
		return nil, err
	}
	cpu, nc := mp.ph.cpuPerOp(0)
	res.set("setup_s", mp.setup, "s", restoreSetupRepeats)
	res.set("queries_per_s", median(mp.queryWins), "1/s", len(mp.queryWins))
	if err := mp.ph.latency(res, "lookup", "lookup", true); err != nil {
		return nil, err
	}
	for _, c := range []string{"topk", "group", "export", "observe"} {
		if err := mp.ph.latency(res, c, c, false); err != nil {
			return nil, err
		}
	}
	res.set("op_p50_ms", median(mp.ph.all)*1e3, "ms", len(mp.ph.all))
	res.set("cpu_us_per_op", cpu, "us", nc)
	rss, nr := mp.ph.peakRSS()
	res.set("peak_rss_mb", rss, "MB", nr)
	res.set("fused_accuracy", acc, "fraction", 1)
	setSuccess(res)
	setLoad(res, serverShards, serverWorkers, mp.dials)
	return res, nil
}

// restoreRepeats is how many times the traced run restores the
// checkpoint in process; stream.restore_ms is the median, and the
// last restore is replayed.
const restoreRepeats = 3

func traceQueryMix(e *env) (*result, error) {
	p, err := genQueryMix(e)
	if err != nil {
		return nil, err
	}
	ckpt := filepath.Join(e.work, "engine.ckpt")
	if err := writeCheckpoint(p, ckpt); err != nil {
		return nil, err
	}
	// The traced run reports no setup_s, so one start serves.
	mp, err := serveQueryMix(e, p, ckpt, 1)
	if err != nil {
		return nil, err
	}
	res := newResult()
	st, err := os.Stat(ckpt)
	if err != nil {
		return nil, err
	}
	tr := alternatingTracer(opsPerCycle)
	var restores []float64
	var ref *stream.Engine
	for i := 0; i < restoreRepeats; i++ {
		setup := tr.Begin("setup", 0, 0)
		d := tr.Span("stream.restore", setup, func() { ref, err = stream.RestoreFile(ckpt) })
		tr.End(setup)
		if err != nil {
			return nil, err
		}
		restores = append(restores, float64(d)/1e6)
	}
	before := ref.CurrentEpoch()
	if err := replayMix(tr, ref, p); err != nil {
		return nil, err
	}
	epochs := ref.CurrentEpoch() - before
	res.attempted = len(mp.ph.all) + len(p.ops)
	spans := tr.Spans()
	if _, err := checkQueryMix(e, res, p, mp, ref, epochs); err != nil {
		return nil, err
	}
	var legacy bytes.Buffer
	if err := legacyExport(&legacy, ref); err != nil {
		return nil, err
	}
	if err := res.check(bytes.Equal(legacy.Bytes(), mp.export), "query-mix: the replayed plain-export path reproduces the server's export byte for byte"); err != nil {
		return nil, err
	}
	if err := writeSpans(spanFile(e, "query-mix"), spans); err != nil {
		return nil, err
	}
	res.set("stream.restore_ms", median(restores), "ms", len(restores))
	res.set("stream.checkpoint_mb", float64(st.Size())/1e6, "MB", 1)
	streamLayer(res, tr, epochs)
	parses := durations(spans, "query.parse")
	parse := median(parses)
	res.set("query.parse_us", parse/1e3, "us", len(parses))
	for _, c := range queryClasses {
		execs, writes := durations(spans, "query.exec."+c), durations(spans, "query.write."+c)
		exec, write := median(execs), median(writes)
		n := tr.counts["query.ops."+c]
		res.set("query.exec_ms."+c, exec/1e6, "ms", len(execs))
		res.set("query.write_ms."+c, write/1e6, "ms", len(writes))
		res.set("query.rows."+c, float64(tr.counts["query.rows."+c])/float64(n), "count", n)
		res.set("query.bytes."+c, float64(tr.counts["query.bytes."+c])/float64(n), "bytes", n)
		// The server answers the plain export without query (see
		// legacyExport), so its http share is measured against that path.
		inProcess := parse + exec + write
		if c == "export" {
			inProcess = median(durations(spans, "stream.estimates_csv"))
		}
		httpNS, _ := subtractLayer(median(mp.ph.lat[c])*1e9, inProcess)
		res.set("http.query_ms."+c, httpNS/1e6, "ms", len(mp.ph.lat[c]))
	}
	setOverhead(res, tr)
	setLoad(res, serverShards, serverWorkers, mp.dials)
	return res, nil
}
