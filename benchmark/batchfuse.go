package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"slimfast"
	"slimfast/internal/core"
	"slimfast/internal/data"
	"slimfast/internal/randx"
	"slimfast/internal/synth"
)

// batch-fuse solves the paper's four Table 1 simulators through the
// public facade with the EM/ERM optimizer choosing (Section 4). It
// loads data and core and never touches stream, query or http.
func batchFuse() *workload {
	return &workload{
		name:     "batch-fuse",
		measures: append(append([]string(nil), e2eMetrics...), "fuse_s", "load.server_workers"),
		layers: []string{"data.build_ms", "data.freeze_ms", "core.compile_ms", "core.decide_ms", "core.fit_em_ms",
			"core.fit_erm_ms", "core.infer_ms", "core.em_iterations", "trace.replay_ms", "trace.overhead_share",
			"load.generator_gomaxprocs", "load.server_workers", "load.connections"},
		run:   runBatchFuse,
		trace: traceBatchFuse,
	}
}

// fuseTrainShare is the gold fraction revealed as training labels.
const fuseTrainShare = 0.2

// fuseAccuracyFloor is the lowest pooled held-out accuracy a correct
// solver reaches on the four simulators.
const fuseAccuracyFloor = 0.7

// fuseData is one dataset as the facade receives it: names only.
type fuseData struct {
	name  string
	obs   [][3]string // source, object, value
	feats [][2]string // source, feature label
	train map[string]string
	test  map[string]string
}

func genFuse(seed int64) ([]fuseData, error) {
	var out []fuseData
	for _, name := range synth.AllNames() {
		in, err := synth.NamedDataset(name, seed)
		if err != nil {
			return nil, err
		}
		ds := in.Dataset
		train, test := data.Split(in.Gold, fuseTrainShare, randx.New(randx.DeriveSeed(seed, "split-"+name)))
		d := fuseData{name: name, train: map[string]string{}, test: map[string]string{}}
		for _, ob := range ds.Observations {
			d.obs = append(d.obs, [3]string{ds.SourceNames[ob.Source], ds.ObjectNames[ob.Object], ds.ValueNames[ob.Value]})
		}
		for s, fs := range ds.SourceFeatures {
			for _, k := range fs {
				d.feats = append(d.feats, [2]string{ds.SourceNames[s], ds.FeatureNames[k]})
			}
		}
		for o, v := range train {
			d.train[ds.ObjectNames[o]] = ds.ValueNames[v]
		}
		for o, v := range test {
			d.test[ds.ObjectNames[o]] = ds.ValueNames[v]
		}
		out = append(out, d)
	}
	return out, nil
}

// problem builds the facade Problem for d.
func (d *fuseData) problem() *slimfast.Problem {
	p := slimfast.NewProblem(d.name)
	for _, o := range d.obs {
		p.AddObservation(o[0], o[1], o[2])
	}
	for _, f := range d.feats {
		p.AddFeature(f[0], f[1])
	}
	for _, o := range sortedKeys(d.train) {
		p.SetTruth(o, d.train[o])
	}
	return p
}

// fusedOutput is what a solve produced, in a form both the facade and
// the traced layer replay can build.
type fusedOutput struct {
	values     map[string]string
	confidence map[string]float64
	algorithm  string
}

// digestLines renders the output deterministically.
func (f *fusedOutput) digestLines(name string, b *strings.Builder) {
	objs := sortedKeys(f.values)
	fmt.Fprintf(b, "%s %s %d\n", name, f.algorithm, len(objs))
	for _, o := range objs {
		fmt.Fprintf(b, "%s,%s,%s\n", o, f.values[o], strconv.FormatFloat(f.confidence[o], 'g', -1, 64))
	}
}

// correct counts test objects whose fused value is the gold one.
func (f *fusedOutput) correct(test map[string]string) int {
	n := 0
	for o, v := range test {
		if f.values[o] == v {
			n++
		}
	}
	return n
}

func fromReport(rep *slimfast.Report) *fusedOutput {
	f := &fusedOutput{values: rep.Values(), confidence: map[string]float64{}, algorithm: string(rep.Algorithm())}
	for o := range f.values {
		f.confidence[o] = rep.Confidence(o)
	}
	return f
}

// checkFuse verifies one pass's outputs: the pooled held-out accuracy
// meets the floor, and the digest equals want (when set).
func checkFuse(sets []fuseData, outs []*fusedOutput, want string) (acc float64, dig string, err error) {
	var b strings.Builder
	correct, total := 0, 0
	for i, d := range sets {
		outs[i].digestLines(d.name, &b)
		correct += outs[i].correct(d.test)
		total += len(d.test)
	}
	dig = digest([]byte(b.String()))
	acc = float64(correct) / float64(total)
	if want != "" && dig != want {
		return acc, dig, fmt.Errorf("check failed: fused output digest %s differs from the first pass's %s", dig[:12], want[:12])
	}
	if acc < fuseAccuracyFloor {
		return acc, dig, fmt.Errorf("check failed: held-out accuracy %.4f below floor %.2f", acc, fuseAccuracyFloor)
	}
	return acc, dig, nil
}

// fuseSetupRepeats is how many times a run builds the four Problems;
// setup_s is the median. One build takes tens of milliseconds, so the
// repeats cost little next to the solves.
const fuseSetupRepeats = 15

// fusePasses is how many times a run solves all four datasets.
func fusePasses(seconds int) int { return max(3, seconds/2) }

// problems builds the facade Problems for every dataset.
func problems(sets []fuseData) []*slimfast.Problem {
	out := make([]*slimfast.Problem, len(sets))
	for i := range sets {
		out[i] = sets[i].problem()
	}
	return out
}

// fuseSetup times building the four Problems fuseSetupRepeats times,
// each from a freshly collected heap, and returns the median.
func fuseSetup(sets []fuseData) float64 {
	times := make([]float64, fuseSetupRepeats)
	for r := range times {
		runtime.GC()
		t0 := time.Now()
		problems(sets)
		times[r] = time.Since(t0).Seconds()
	}
	return median(times)
}

func runBatchFuse(e *env) (*result, error) {
	sets, err := genFuse(e.seed)
	if err != nil {
		return nil, err
	}
	res := newResult()
	setup := fuseSetup(sets)
	// Per dataset, the solve wall and CPU seconds of every pass.
	wall, cpu := make([][]float64, len(sets)), make([][]float64, len(sets))
	var rss []float64
	var acc float64
	var first string
	passes := fusePasses(e.seconds)
	for pass := 0; pass < passes; pass++ {
		outs := make([]*fusedOutput, len(sets))
		// Each pass's peak RSS counts from the heap the pass starts with.
		runtime.GC()
		debug.FreeOSMemory()
		if err := resetPeakRSS(os.Getpid()); err != nil {
			return nil, err
		}
		for i, p := range problems(sets) {
			c0 := selfCPU()
			t0 := time.Now()
			rep, err := p.Solve(slimfast.WithParallelism(serverWorkers))
			wall[i] = append(wall[i], time.Since(t0).Seconds())
			cpu[i] = append(cpu[i], selfCPU()-c0)
			res.attempted++
			if err != nil {
				res.failed++
				return nil, fmt.Errorf("%s: Solve: %w", sets[i].name, err)
			}
			outs[i] = fromReport(rep)
		}
		peak, err := procPeakRSSMB(os.Getpid())
		if err != nil {
			return nil, err
		}
		if acc, first, err = checkFuse(sets, outs, first); err != nil {
			return nil, err
		}
		rss = append(rss, peak)
	}
	if err := res.check(true, "batch-fuse: %d passes produced one output digest %s", passes, first[:12]); err != nil {
		return nil, err
	}
	if err := res.check(true, "batch-fuse: pooled held-out accuracy %.4f >= %.2f", acc, fuseAccuracyFloor); err != nil {
		return nil, err
	}
	ok, msg, err := e.expectation("batch-fuse", map[string]string{"digest": first, "accuracy": strconv.FormatFloat(acc, 'g', -1, 64)})
	if err != nil {
		return nil, err
	}
	if err := res.check(ok, "batch-fuse: digest and accuracy %s", msg); err != nil {
		return nil, err
	}
	// The four datasets' solves differ by 10×, so a median over all
	// solves would land on whichever two datasets straddle it. Each
	// dataset gets its median over passes instead, and the op metrics
	// weigh the four equally.
	var fuse, cpuS float64
	for i := range sets {
		fuse += median(wall[i])
		cpuS += median(cpu[i])
	}
	res.set("setup_s", setup, "s", fuseSetupRepeats)
	res.set("fuse_s", fuse, "s", passes)
	res.set("op_p50_ms", fuse/float64(len(sets))*1e3, "ms", res.attempted)
	res.set("cpu_us_per_op", cpuS/float64(len(sets))*1e6, "us", res.attempted)
	res.set("peak_rss_mb", median(rss), "MB", passes)
	res.set("fused_accuracy", acc, "fraction", passes)
	setSuccess(res)
	res.set("load.server_workers", serverWorkers, "count", 1)
	return res, nil
}

// solveTraced replays Problem.Solve through the data and core layers
// with a span around every layer call. It mirrors the facade: build,
// freeze, resolve truth, compile, let the optimizer decide, fit, infer.
func solveTraced(tr *Tracer, d *fuseData, emIters *int) (*fusedOutput, error) {
	op := tr.Begin("solve."+d.name, 0, 0)
	defer tr.End(op)
	var ds *data.Dataset
	var train data.TruthMap
	var err error
	b := data.NewBuilder(d.name)
	tr.Span("data.build", op, func() {
		for _, o := range d.obs {
			b.ObserveNames(o[0], o[1], o[2])
		}
		for _, f := range d.feats {
			b.SetFeature(b.Source(f[0]), f[1])
		}
	})
	tr.Span("data.freeze", op, func() { ds = b.Freeze() })
	tr.Span("data.build", op, func() { train, err = data.TruthFromNames(ds, d.train) })
	if err != nil {
		return nil, err
	}
	opts := core.DefaultOptions()
	opts.Workers = serverWorkers
	var m *core.Model
	tr.Span("core.compile", op, func() { m, err = core.Compile(ds, opts) })
	if err != nil {
		return nil, err
	}
	var dec core.Decision
	tr.Span("core.decide", op, func() { dec = core.Decide(ds, train, core.DefaultOptimizerOptions()) })
	alg := dec.Algorithm
	if len(train) == 0 {
		alg = core.AlgorithmEM
	}
	switch alg {
	case core.AlgorithmEM:
		var st core.EMStats
		tr.Span("core.fit_em", op, func() { st, err = m.FitEM(train) })
		*emIters += st.Iterations
	default:
		tr.Span("core.fit_erm", op, func() { _, err = m.FitERM(train) })
	}
	if err != nil {
		return nil, err
	}
	var r *core.Result
	tr.Span("core.infer", op, func() { r, err = m.Infer(train) })
	if err != nil {
		return nil, err
	}
	out := &fusedOutput{values: map[string]string{}, confidence: map[string]float64{}, algorithm: alg.String()}
	for o, v := range r.Values {
		name := ds.ObjectNames[o]
		out.values[name] = ds.ValueNames[v]
		out.confidence[name] = r.Posterior(o)[v]
	}
	return out, nil
}

// tracedPasses is how many passes the traced run makes with span
// recording on, and again with it off.
const tracedPasses = 3

func traceBatchFuse(e *env) (*result, error) {
	sets, err := genFuse(e.seed)
	if err != nil {
		return nil, err
	}
	res := newResult()
	// The facade's output for the same inputs, which the layer replay
	// must reproduce exactly.
	outs := make([]*fusedOutput, len(sets))
	for i, p := range problems(sets) {
		rep, err := p.Solve(slimfast.WithParallelism(serverWorkers))
		if err != nil {
			return nil, fmt.Errorf("%s: Solve: %w", sets[i].name, err)
		}
		outs[i] = fromReport(rep)
	}
	_, want, err := checkFuse(sets, outs, "")
	if err != nil {
		return nil, err
	}
	// One chunk of the alternating tracer is one pass over the four
	// datasets, so recording flips on and off pass by pass.
	tr := alternatingTracer(len(sets))
	layerMS := map[string][]float64{}
	emIters := 0
	for pass := 0; pass < 2*tracedPasses; pass++ {
		from := len(tr.Spans())
		iters := 0
		for i := range sets {
			tr.Op()
			res.attempted++
			o, err := solveTraced(tr, &sets[i], &iters)
			if err != nil {
				res.failed++
				return nil, fmt.Errorf("%s: traced solve: %w", sets[i].name, err)
			}
			outs[i] = o
		}
		if _, _, err := checkFuse(sets, outs, want); err != nil {
			return nil, fmt.Errorf("traced replay: %w", err)
		}
		emIters = iters
		spans := tr.Spans()[from:]
		if len(spans) == 0 {
			continue // a pass with recording off
		}
		lt := layerTimes(spans)
		for _, n := range []string{"data.build", "data.freeze", "core.compile", "core.decide", "core.fit_em", "core.fit_erm", "core.infer"} {
			layerMS[n] = append(layerMS[n], float64(lt[n])/1e6)
		}
	}
	tr.Flush()
	if err := writeSpans(spanFile(e, "batch-fuse"), tr.Spans()); err != nil {
		return nil, err
	}
	if err := res.check(true, "batch-fuse: traced layer replay reproduces the facade's output digest %s", want[:12]); err != nil {
		return nil, err
	}
	for _, n := range sortedKeys(layerMS) {
		res.set(n+"_ms", median(layerMS[n]), "ms", len(layerMS[n]))
	}
	res.set("core.em_iterations", float64(emIters), "count", 1)
	setOverhead(res, tr)
	res.set("load.generator_gomaxprocs", float64(runtime.GOMAXPROCS(0)), "count", 1)
	res.set("load.server_workers", serverWorkers, "count", 1)
	res.set("load.connections", 0, "count", 1)
	return res, nil
}
