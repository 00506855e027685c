package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"time"

	"slimfast/internal/query"
	"slimfast/internal/stream"
)

// setupRepeats is how many times a serving workload starts its
// processes; setup_s is the median, and the last start serves the run.
const setupRepeats = 15

// startRepeated starts a process group n times through start, keeps
// the last group and returns the median set-up time.
func startRepeated(n int, start func() ([]*server, time.Duration, error)) ([]*server, float64, error) {
	var times []float64
	var keep []*server
	for i := 0; i < n; i++ {
		if keep != nil {
			if err := stopAll(keep); err != nil {
				return nil, 0, err
			}
		}
		srvs, d, err := start()
		if err != nil {
			return nil, 0, err
		}
		keep = srvs
		times = append(times, d.Seconds())
	}
	return keep, median(times), nil
}

// stopAll stops every server and waits for all of them.
func stopAll(srvs []*server) error {
	var first error
	for _, s := range srvs {
		if err := s.stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func pids(srvs []*server) []int {
	out := make([]int, len(srvs))
	for i, s := range srvs {
		out[i] = s.pid()
	}
	return out
}

// phase records one closed-loop HTTP phase: per-class latencies, and
// at every window boundary the wall clock and the CPU time of each
// process under test.
type phase struct {
	pids   []int
	window int // ops per window
	ops    int
	lat    map[string][]float64 // seconds, per request class
	all    []float64            // seconds, every op
	t      []float64            // wall seconds at window boundaries
	cpu    [][]float64          // per pid, CPU seconds at window boundaries
	rss    []float64            // per window, peak RSS summed over pids (MB)
	procs  int                  // GOMAXPROCS to restore at end
}

// beginPhase pins the generator to generatorProcs threads and takes
// the first window boundary.
func beginPhase(pids []int, window int) (*phase, error) {
	p := &phase{pids: pids, window: window, lat: map[string][]float64{}, cpu: make([][]float64, len(pids))}
	p.procs = runtime.GOMAXPROCS(generatorProcs)
	return p, p.sample()
}

// sample closes the current window and opens the next: it records the
// clock, each process's CPU time and the window's peak RSS, then
// resets each process's peak.
func (p *phase) sample() error {
	p.t = append(p.t, float64(time.Now().UnixNano())/1e9)
	var rss float64
	for i, pid := range p.pids {
		c, err := procCPU(pid)
		if err != nil {
			return err
		}
		p.cpu[i] = append(p.cpu[i], c)
		r, err := procPeakRSSMB(pid)
		if err != nil {
			return err
		}
		rss += r
		if err := resetPeakRSS(pid); err != nil {
			return err
		}
	}
	if len(p.t) > 1 {
		p.rss = append(p.rss, rss)
	}
	return nil
}

// peakRSS is the median over windows of the window's peak RSS, summed
// over the processes. A median of peaks, unlike one lifetime VmHWM,
// does not move with where one GC cycle happened to land.
func (p *phase) peakRSS() (float64, int) { return median(p.rss), len(p.rss) }

// done records one completed op.
func (p *phase) done(class string, d time.Duration) error {
	s := d.Seconds()
	p.lat[class] = append(p.lat[class], s)
	p.all = append(p.all, s)
	p.ops++
	if p.ops%p.window == 0 {
		return p.sample()
	}
	return nil
}

func (p *phase) end() { runtime.GOMAXPROCS(p.procs) }

// opsPerS is the median over windows of ops completed per second.
func (p *phase) opsPerS() (float64, int) {
	r := windowRates(p.t, p.window)
	return median(r), len(r)
}

// cpuPerOp is the median over windows of CPU microseconds per op,
// summed over the processes at the given indexes of p.pids.
func (p *phase) cpuPerOp(idx ...int) (float64, int) {
	sum := make([]float64, len(p.t))
	for _, i := range idx {
		for w, c := range p.cpu[i] {
			sum[w] += c * 1e6
		}
	}
	c := windowCosts(sum, p.window)
	return median(c), len(c)
}

// allProcs lists every process index, for cpuPerOp.
func (p *phase) allProcs() []int {
	out := make([]int, len(p.pids))
	for i := range out {
		out[i] = i
	}
	return out
}

// latency reports p50 (and p99 when the samples support it) of class
// in milliseconds under <prefix>_p50_ms / <prefix>_p99_ms.
func (p *phase) latency(res *result, class, prefix string, tail bool) error {
	xs := p.lat[class]
	res.set(prefix+"_p50_ms", median(xs)*1e3, "ms", len(xs))
	if !tail {
		return nil
	}
	v, ok := percentile(xs, 0.99)
	if !ok {
		return fmt.Errorf("%s: %d samples cannot support a p99", class, len(xs))
	}
	res.set(prefix+"_p99_ms", v*1e3, "ms", len(xs))
	return nil
}

// observe sends one observe request and fails on anything but 200.
func observe(c *client, base, contentType, seq string, body []byte) (time.Duration, error) {
	code, b, d, err := c.do(http.MethodPost, base+"/v1/observe", contentType, seq, body)
	if err != nil {
		return d, fmt.Errorf("observe %s: %w", seq, err)
	}
	if code != http.StatusOK {
		return d, fmt.Errorf("observe %s: %d %s", seq, code, b)
	}
	return d, nil
}

// scrape fetches and parses a process's /v1/metrics.
func scrape(c *client, base string) (map[string]float64, error) {
	b, err := c.get(base + "/v1/metrics")
	if err != nil {
		return nil, err
	}
	return promCounters(b), nil
}

// checkNoShed checks that a process shed and timed out nothing.
func checkNoShed(res *result, who string, m map[string]float64) error {
	shed, to := sumFamily(m, "slimfast_http_shed_total"), sumFamily(m, "slimfast_http_timeouts_total")
	return res.check(shed == 0 && to == 0, "%s: shed %v and timed out %v requests (want 0 and 0)", who, shed, to)
}

// engineOptions mirrors `slimfast stream -shards 2 -workers 2`, so an
// in-process engine fed the same claims computes what the server
// computes.
func engineOptions() stream.EngineOptions {
	opts := stream.DefaultEngineOptions()
	opts.Shards = serverShards
	opts.Workers = serverWorkers
	return opts
}

// plainQuery is the unfiltered estimates scan, GET /v1/estimates.
func plainQuery() *query.Query {
	q, err := query.Parse(url.Values{}, query.EstimateColumns())
	if err != nil {
		panic(err) // the empty query always parses
	}
	return q
}

// exportCSV renders eng's estimates through query.Write, the form the
// server's plain GET /v1/estimates must reproduce byte for byte.
func exportCSV(eng *stream.Engine) ([]byte, error) {
	res, err := query.Execute(eng, plainQuery())
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	if err := query.Write(&b, res, "csv"); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// seqKey is the idempotency key of request i.
func seqKey(workload string, i int) string { return workload + "-" + strconv.Itoa(i) }

// setLoad records the load budget.
func setLoad(res *result, shards, workers int, dials int64) {
	res.set("load.generator_gomaxprocs", generatorProcs, "count", 1)
	res.set("load.connections", float64(dials), "count", 1)
	res.set("load.server_shards", float64(shards), "count", 1)
	res.set("load.server_workers", float64(workers), "count", 1)
}
