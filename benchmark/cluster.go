package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"slimfast/internal/cluster"
	"slimfast/internal/obs"
	"slimfast/internal/query"
	"slimfast/internal/resilience"
	"slimfast/internal/stream"
)

// cluster-ingest sends the claim stream through `slimfast router` in
// front of two `stream -external-epochs` members, with a cluster-wide
// epoch barrier every 1024 claims. It is the only workload that loads
// cluster and the router's HTTP path; it bypasses query and core.
func clusterIngest() *workload {
	return &workload{
		name: "cluster-ingest",
		measures: append(append([]string(nil), e2eMetrics...), "claims_per_s", "observe_p50_ms", "observe_p99_ms",
			"load.generator_gomaxprocs", "load.connections", "load.server_shards", "load.server_workers"),
		layers: []string{"cluster.ingest_ms_p50", "cluster.barrier_ingest_ms_p50", "cluster.barriers", "cluster.retries",
			"http.router_us_per_req", "trace.replay_ms", "trace.overhead_share",
			"load.generator_gomaxprocs", "load.connections", "load.server_shards", "load.server_workers"},
		run:   runCluster,
		trace: traceCluster,
	}
}

const (
	// clusterObjectsPerSecond sizes the stream: --seconds 10 gives 60k
	// objects, about 500k claims in 7.9k requests. A run measures for
	// about 11 s, so a minute-long change in host contention moves
	// fewer runs of a set.
	clusterObjectsPerSecond = 6000
	// clusterWindow is the number of requests per throughput/CPU window.
	clusterWindow = 300
	// clusterBatch and clusterEpoch are the router's -batch and -epoch.
	clusterBatch = 1024
	clusterEpoch = 1024
	clusterNodes = 2
)

// startMembers starts the cluster members.
func startMembers(e *env) ([]*server, error) {
	var out []*server
	for i := 0; i < clusterNodes; i++ {
		s, _, err := startServer(e.bin, []string{"stream", "-listen", "127.0.0.1:0", "-shards", strconv.Itoa(serverShards),
			"-workers", strconv.Itoa(memberWorkers), "-external-epochs"})
		if err != nil {
			stopAll(out)
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func memberAddrs(ms []*server) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.addr
	}
	return out
}

// startCluster starts the members and the router; the set-up time runs
// from the first member's exec to the router's first ready answer. The
// router is the first server returned.
func startCluster(e *env) ([]*server, time.Duration, error) {
	began := time.Now()
	ms, err := startMembers(e)
	if err != nil {
		return nil, 0, err
	}
	r, _, err := startServer(e.bin, []string{"router", "-listen", "127.0.0.1:0", "-nodes", strings.Join(memberAddrs(ms), ","),
		"-batch", strconv.Itoa(clusterBatch), "-epoch", strconv.Itoa(clusterEpoch), "-checkpoint-epochs", "0"})
	if err != nil {
		stopAll(ms)
		return nil, 0, err
	}
	return append([]*server{r}, ms...), time.Since(began), nil
}

// expectedBarriers replays the router's barrier rule: a barrier runs
// after the chunk that brings the claims since the last one to the
// epoch length.
func expectedBarriers(reqs [][]stream.Triple) int64 {
	var since, n int64
	for _, r := range reqs {
		for lo := 0; lo < len(r); lo += clusterBatch {
			since += int64(min(lo+clusterBatch, len(r)) - lo)
			if since >= clusterEpoch {
				n++
				since = 0
			}
		}
	}
	return n
}

// clusterPass is one untraced pass through the router process.
type clusterPass struct {
	ph       *phase
	setup    float64
	export   []byte
	router   map[string]float64
	members  []map[string]float64
	barriers int64 // from the last observe response
	dials    int64
	claims   int
}

func serveCluster(e *env, cs *claimStream) (*clusterPass, error) {
	srvs, setup, err := startRepeated(setupRepeats, func() ([]*server, time.Duration, error) { return startCluster(e) })
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
	ph, err := beginPhase(pids(srvs), clusterWindow)
	if err != nil {
		return nil, err
	}
	var last []byte
	for i, b := range bodies {
		code, body, d, err := c.do(http.MethodPost, base+"/v1/observe", "application/x-ndjson", seqKey("cluster-ingest", i), b)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("observe %d: %d %s", i, code, body)
		}
		if err == nil {
			err = ph.done("observe", d)
		}
		if err != nil {
			ph.end()
			return nil, err
		}
		last = body
	}
	ph.end()
	p := &clusterPass{ph: ph, setup: setup, claims: len(cs.claims)}
	var ir cluster.IngestResult
	if err := json.Unmarshal(last, &ir); err != nil {
		return nil, fmt.Errorf("router observe response: %w", err)
	}
	p.barriers = ir.Barriers
	if p.export, err = c.get(base + "/v1/estimates"); err != nil {
		return nil, err
	}
	for i, s := range srvs {
		m, err := scrape(c, s.addr)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			p.router = m
		} else {
			p.members = append(p.members, m)
		}
	}
	// Three processes were scraped over three connections; the
	// load-bearing phase used the router's one.
	p.dials = c.dials.Load() - int64(len(srvs)-1)
	return p, stopAll(srvs)
}

// checkCluster runs the checks shared by both runs.
func checkCluster(e *env, res *result, cs *claimStream, p *clusterPass, want int64) (float64, error) {
	acc, err := estimatesAccuracy(p.export, cs.gold)
	if err != nil {
		return 0, err
	}
	if err := res.check(acc >= servingAccuracyFloor, "cluster-ingest: fused accuracy %.4f >= %.2f", acc, servingAccuracyFloor); err != nil {
		return 0, err
	}
	dig := exportDigest(p.export)
	ok, msg, err := e.expectation("cluster-ingest", map[string]string{"digest": dig})
	if err != nil {
		return 0, err
	}
	if err := res.check(ok, "cluster-ingest: router export digest %s %s", dig[:12], msg); err != nil {
		return 0, err
	}
	barriers := sumFamily(p.router, "slimfast_router_barriers_total")
	if err := res.check(barriers == float64(want) && p.barriers == want,
		"cluster-ingest: router ran %v barriers (response says %d), expected %d", barriers, p.barriers, want); err != nil {
		return 0, err
	}
	var obsSum float64
	for _, m := range p.members {
		obsSum += sumFamily(m, "slimfast_engine_observations_total")
	}
	if err := res.check(obsSum == float64(p.claims), "cluster-ingest: members counted %v observations, %d claims sent", obsSum, p.claims); err != nil {
		return 0, err
	}
	for i, m := range append([]map[string]float64{p.router}, p.members...) {
		if err := checkNoShed(res, fmt.Sprintf("cluster-ingest process %d", i), m); err != nil {
			return 0, err
		}
	}
	return acc, res.check(p.dials == 1, "cluster-ingest: one client connection to the router (opened %d)", p.dials)
}

func runCluster(e *env) (*result, error) {
	cs, err := genClaims(e.seed, clusterObjectsPerSecond*e.seconds)
	if err != nil {
		return nil, err
	}
	p, err := serveCluster(e, cs)
	if err != nil {
		return nil, err
	}
	res := newResult()
	res.attempted = len(p.ph.all)
	acc, err := checkCluster(e, res, cs, p, expectedBarriers(requests(cs.claims)))
	if err != nil {
		return nil, err
	}
	ops, nw := p.ph.opsPerS()
	cpu, nc := p.ph.cpuPerOp(p.ph.allProcs()...)
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
	setLoad(res, serverShards, memberWorkers, p.dials)
	return res, nil
}

// routerPass drives an in-process cluster.Router against fresh member
// processes, one Ingest per request, each an op span with the router
// call as its child, named by whether it ran an epoch barrier.
func routerPass(e *env, tr *Tracer, reqs [][]stream.Triple) (export []byte, retries float64, st cluster.Stats, err error) {
	ms, err := startMembers(e)
	if err != nil {
		return nil, 0, st, err
	}
	defer stopAll(ms)
	reg := obs.NewRegistry()
	rt, err := cluster.New(cluster.Config{
		Nodes:       memberAddrs(ms),
		Batch:       clusterBatch,
		EpochLength: clusterEpoch,
		Opts:        stream.DefaultOptions(),
		HTTP:        &http.Client{},
		Retry:       resilience.ClientConfig{MaxAttempts: 5, PerTryTimeout: 30 * time.Second, Seed: 1},
		Metrics:     cluster.NewMetrics(reg),
	})
	if err != nil {
		return nil, 0, st, err
	}
	ctx := context.Background()
	for i, r := range reqs {
		tr.Op()
		op := tr.Begin("observe", 0, 0)
		before := rt.Stats().Barriers
		id := tr.Begin("cluster.ingest", op, tr.traceOf(op))
		_, err := rt.Ingest(ctx, r, seqKey("cluster-ingest", i))
		tr.End(id)
		if rt.Stats().Barriers != before {
			tr.rename(id, "cluster.barrier_ingest")
		}
		tr.End(op)
		if err != nil {
			return nil, 0, st, fmt.Errorf("router ingest %d: %w", i, err)
		}
	}
	res, err := rt.Query(ctx, plainQuery())
	if err != nil {
		return nil, 0, st, err
	}
	var b bytes.Buffer
	if err := query.Write(&b, res, "csv"); err != nil {
		return nil, 0, st, err
	}
	var m bytes.Buffer
	if err := reg.Write(&m); err != nil {
		return nil, 0, st, err
	}
	return b.Bytes(), sumFamily(promCounters(m.Bytes()), "slimfast_router_retries"), rt.Stats(), stopAll(ms)
}

func traceCluster(e *env) (*result, error) {
	cs, err := genClaims(e.seed, clusterObjectsPerSecond*e.seconds)
	if err != nil {
		return nil, err
	}
	// The untraced router-process pass gives the router's own CPU per
	// request and the export the in-process router must reproduce.
	p, err := serveCluster(e, cs)
	if err != nil {
		return nil, err
	}
	res := newResult()
	reqs := requests(cs.claims)
	want := expectedBarriers(reqs)
	if _, err := checkCluster(e, res, cs, p, want); err != nil {
		return nil, err
	}
	tr := alternatingTracer(clusterWindow)
	export, retries, st, err := routerPass(e, tr, reqs)
	if err != nil {
		return nil, err
	}
	res.attempted = len(p.ph.all) + len(reqs)
	spans := tr.Spans()
	dig := exportDigest(export)
	if err := res.check(dig == exportDigest(p.export), "cluster-ingest: in-process router export digest %s equals the router process's", dig[:12]); err != nil {
		return nil, err
	}
	if err := res.check(st.Barriers == want && st.Claims == int64(len(cs.claims)),
		"cluster-ingest: in-process router ran %d barriers over %d claims, expected %d over %d", st.Barriers, st.Claims, want, len(cs.claims)); err != nil {
		return nil, err
	}
	if err := writeSpans(spanFile(e, "cluster-ingest"), spans); err != nil {
		return nil, err
	}
	plain, barrier := durations(spans, "cluster.ingest"), durations(spans, "cluster.barrier_ingest")
	res.set("cluster.ingest_ms_p50", median(plain)/1e6, "ms", len(plain))
	res.set("cluster.barrier_ingest_ms_p50", median(barrier)/1e6, "ms", len(barrier))
	res.set("cluster.barriers", float64(st.Barriers), "count", 1)
	res.set("cluster.retries", retries, "count", 1)
	router, nc := p.ph.cpuPerOp(0)
	res.set("http.router_us_per_req", router, "us", nc)
	setOverhead(res, tr)
	setLoad(res, serverShards, memberWorkers, p.dials)
	return res, nil
}
