// Command benchmark is slimfast's end-to-end and per-layer benchmark.
//
//	bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// run.sh builds cmd/slimfast and this program from the checkout it is
// started in, then runs one workload. The untraced run (--trace 0)
// drives the user surfaces — the slimfast facade in process, and the
// `slimfast stream` / `slimfast router` binaries over HTTP — with one
// closed-loop client on one keep-alive connection, in a fixed seeded
// order, and reports the end-to-end metrics. The traced run (--trace
// 1) replays the same generated operations through each layer's
// public Go functions with spans around every layer call, and reports
// the per-layer metrics. Both check the program's outputs; any failed
// check fails the run. The last stdout line is the JSON result; the
// lines before it list every metric the workload measures with its
// unit and sample count. LAYERS.md maps each per-layer metric to the
// end-to-end metric it should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// Server load budget: the processes under test get these flags, so
// the numbers measure the program rather than the scheduler.
const (
	serverShards  = 2
	serverWorkers = 2
	memberWorkers = 1
	// generatorProcs is the load generator's GOMAXPROCS during HTTP
	// phases: one closed-loop client needs one thread, and the rest of
	// the machine is left to the server.
	generatorProcs = 1
)

// e2eMetrics are the end-to-end metrics every workload measures; the
// untraced run's result line carries exactly these (BENCHMARK.json
// end_to_end). An op is one Solve (batch-fuse) or one request. The
// workloads' throughputs (fuse_s, claims_per_s, queries_per_s) are
// reported but not gated: with one closed-loop client they add only
// the generator's own scheduling noise to op_p50_ms.
var e2eMetrics = []string{
	"setup_s", "op_p50_ms", "cpu_us_per_op", "peak_rss_mb", "fused_accuracy", "success_rate",
}

// metric is one measured value with its unit and sample count.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"-"`
}

// result is one run's outcome.
type result struct {
	metrics   map[string]metric
	attempted int
	failed    int
	checks    []string // passed correctness checks, for the log
}

func newResult() *result { return &result{metrics: map[string]metric{}} }

// set records a metric measured over n samples.
func (r *result) set(name string, v float64, unit string, n int) {
	r.metrics[name] = metric{Value: v, Unit: unit, N: n}
}

// check records a correctness check; a false ok fails the run.
func (r *result) check(ok bool, format string, args ...any) error {
	msg := fmt.Sprintf(format, args...)
	if !ok {
		return errors.New("check failed: " + msg)
	}
	r.checks = append(r.checks, msg)
	return nil
}

// env is what a workload needs from the command line and run.sh.
type env struct {
	seed    int64
	seconds int
	bin     string // the slimfast binary
	work    string // working directory for this run, removed at exit
	build   string // fingerprint of the binaries under test
	expect  string // directory of per-(workload, seed, build) expected outputs
	traces  string // directory the traced run writes its spans to
}

// workload is one benchmark traffic mix.
type workload struct {
	name string
	// measures lists the metrics the untraced run reports, and layers
	// the traced run's; a run that reports a metric outside its list
	// fails (TestWorkloadsEmitOnlyWhatTheyMeasure).
	measures []string
	layers   []string
	run      func(e *env) (*result, error)
	trace    func(e *env) (*result, error)
}

func workloads() []*workload {
	return []*workload{batchFuse(), ingest(), queryMix(), clusterIngest()}
}

func findWorkload(name string) *workload {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	name := flag.String("workload", "", "workload: batch-fuse, ingest, query-mix or cluster-ingest")
	seed := flag.Int64("seed", 1, "input generation seed")
	seconds := flag.Int("seconds", 10, "nominal measured seconds; sizes the fixed operation sequence")
	trace := flag.Int("trace", 0, "1 = traced per-layer run, 0 = untraced end-to-end run")
	bin := flag.String("bin", "", "slimfast binary under test")
	work := flag.String("work", "", "directory for run files (inside the checkout)")
	flag.Parse()
	w := findWorkload(*name)
	if w == nil || *bin == "" || *work == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: benchmark --workload batch-fuse|ingest|query-mix|cluster-ingest --seed N --seconds S --trace 0|1 -bin slimfast -work dir")
		return 2
	}
	dir, err := os.MkdirTemp(*work, w.name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	build, err := buildFingerprint(*bin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	e := &env{seed: *seed, seconds: *seconds, bin: *bin, work: dir, build: build,
		expect: filepath.Join(*work, "expect"), traces: filepath.Join(*work, "traces")}
	if err := errors.Join(os.MkdirAll(e.expect, 0o755), os.MkdirAll(e.traces, 0o755)); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	steal := startSteal()
	run, want, final := w.run, w.measures, e2eMetrics
	if *trace == 1 {
		run, want, final = w.trace, w.layers, perLayerMetrics()
	}
	res, err := run(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	res.set("host.steal_share", steal.share(), "fraction", 1)
	res.set("load.nproc", float64(runtime.NumCPU()), "count", 1)
	if err := validate(res, want); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	for _, c := range res.checks {
		fmt.Printf("# check ok: %s\n", c)
	}
	for _, k := range sortedKeys(res.metrics) {
		m := res.metrics[k]
		fmt.Printf("# %s = %.6g %s (n=%d)\n", k, m.Value, m.Unit, m.N)
	}
	out, err := json.Marshal(finalLine(res, final))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// setSuccess records success_rate, the share of attempted ops that
// succeeded. Every workload aborts on its first failed op, and the
// checks after it (claims counted, export digest) could not hold with
// an op missing, so a run that prints a result always reads 1. A
// failure shows as a failed run, not as a lower rate.
func setSuccess(res *result) {
	res.set("success_rate", float64(res.attempted-res.failed)/float64(res.attempted), "fraction", res.attempted)
}

// alwaysReported are recorded by main for every run.
var alwaysReported = []string{"host.steal_share", "load.nproc"}

// validate fails a result that reports a metric outside want, misses
// one of want, or holds a non-finite value.
func validate(res *result, want []string) error {
	allowed := map[string]bool{}
	for _, n := range append(append([]string(nil), want...), alwaysReported...) {
		allowed[n] = true
	}
	for n, m := range res.metrics {
		if !allowed[n] {
			return fmt.Errorf("reports %s, which this run does not declare", n)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("%s is %v", n, m.Value)
		}
	}
	for _, n := range want {
		if _, ok := res.metrics[n]; !ok {
			return fmt.Errorf("declares %s but did not measure it", n)
		}
	}
	if res.attempted < 1 {
		return errors.New("attempted no operations")
	}
	return nil
}

type finalResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// finalLine builds the result line over the names BENCHMARK.json lists
// for this trace mode. A per-layer metric of a layer the workload never
// calls reads 0: the traced run recorded no span or count for it.
func finalLine(res *result, names []string) finalResult {
	out := finalResult{Correct: true, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metric{}}
	for _, n := range names {
		m, ok := res.metrics[n]
		if !ok {
			m = metric{Unit: unitOf(n)}
		}
		out.Metrics[n] = m
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// buildFingerprint hashes the slimfast binary and this program's own
// executable, which holds the facade and every in-process layer.
func buildFingerprint(bin string) (string, error) {
	self, err := os.Executable()
	if err != nil {
		return "", err
	}
	var b []byte
	for _, path := range []string{bin, self} {
		f, err := os.ReadFile(path)
		if err != nil {
			return "", err
		}
		b = append(b, digest(f)...)
	}
	return digest(b)[:16], nil
}

// expectation pins a run's outputs per (workload, seed, seconds,
// build): the first run of a build records them, and every later run
// of the same build must reproduce them exactly. A rebuilt program
// gets a fresh record, so the pin catches nondeterminism within one
// build; whether a build's outputs are right is for the reference
// checks against in-process layers and gold.
func (e *env) expectation(workload string, got map[string]string) (bool, string, error) {
	path := filepath.Join(e.expect, fmt.Sprintf("%s-seed%d-s%d-%s.json", workload, e.seed, e.seconds, e.build))
	if b, err := os.ReadFile(path); err == nil {
		var want map[string]string
		if err := json.Unmarshal(b, &want); err != nil {
			return false, "", fmt.Errorf("reading %s: %w", path, err)
		}
		for k, v := range got {
			if w, ok := want[k]; ok && w != v {
				return false, fmt.Sprintf("%s: %s, earlier run %s", k, v, w), nil
			}
		}
		merged := want
		changed := false
		for k, v := range got {
			if _, ok := merged[k]; !ok {
				merged[k] = v
				changed = true
			}
		}
		if !changed {
			return true, "matches earlier runs", nil
		}
		got = merged
	}
	b, err := json.Marshal(got)
	if err != nil {
		return false, "", err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return false, "", err
	}
	return true, "recorded for later runs", os.Rename(tmp, path)
}

// unitOf looks a per-layer metric's unit up in the layer table.
func unitOf(name string) string {
	for _, l := range layerTable {
		if l.name == name {
			return l.unit
		}
	}
	return ""
}

// spanFile is where a traced run writes its spans: outside the run's
// working directory, so they survive the run.
func spanFile(e *env, workload string) string {
	return filepath.Join(e.traces, fmt.Sprintf("%s-seed%d.json", workload, e.seed))
}
