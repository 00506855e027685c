package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"slimfast/internal/stream"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // unsorted on purpose
		}
		return out
	}
	if _, ok := percentile(xs(999), 0.99); ok {
		t.Error("p99 of 999 samples has 9 beyond it and must not be reported")
	}
	v, ok := percentile(xs(1000), 0.99)
	if !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	if v, ok := percentile(xs(20), 0.5); !ok || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10, true", v, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("no samples support no percentile")
	}
}

func TestWindowedMedianResistsOneStall(t *testing.T) {
	// Clock readings every 10 ops; the third window stalled for 10 s.
	rates := windowRates([]float64{0, 1, 2, 12, 13, 14}, 10)
	if want := []float64{10, 10, 1, 10, 10}; !slices.Equal(rates, want) {
		t.Fatalf("window rates = %v, want %v", rates, want)
	}
	if m := median(rates); m != 10 {
		t.Errorf("windowed median = %v, want 10: one stalled window must not move it", m)
	}
	// Cumulative CPU seconds every 4 ops.
	if c := windowCosts([]float64{1, 3, 5, 13}, 4); !slices.Equal(c, []float64{0.5, 0.5, 2}) || median(c) != 0.5 {
		t.Errorf("window costs = %v", c)
	}
	if median([]float64{4, 1, 3, 2}) != 2.5 || median(nil) != 0 {
		t.Error("median of an even count is the mean of the middle two")
	}
}

func TestSelfTimeSubtractsCoveredChildTimeOnce(t *testing.T) {
	spans := []Span{
		{ID: 1, Trace: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Trace: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Trace: 1, Name: "b", Start: 20, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Trace: 1, Name: "c", Start: 90, End: 120}, // runs past the parent
		{ID: 5, Parent: 3, Trace: 1, Name: "d", Start: 25, End: 35},
	}
	self := selfTimes(spans)
	want := []time.Duration{100 - 40 - 10, 20, 30 - 10, 30, 10}
	if !slices.Equal(self, want) {
		t.Errorf("self times = %v, want %v", self, want)
	}
	if lt := layerTimes(spans); lt["op"] != 50 || lt["b"] != 20 {
		t.Errorf("layer times = %v", lt)
	}
}

func TestTracerRecordsParentsAndTraces(t *testing.T) {
	tr := newTracer(true)
	op := tr.Begin("op", 0, 0)
	tr.Span("child", op, func() {})
	id := tr.Begin("x", op, tr.traceOf(op))
	tr.End(id)
	tr.rename(id, "y")
	tr.End(op)
	s := tr.Spans()
	if len(s) != 3 || s[1].Parent != op || s[1].Trace != s[0].Trace || s[2].Name != "y" || s[0].End < s[2].End {
		t.Errorf("spans = %+v", s)
	}
	off := newTracer(false)
	if id := off.Begin("op", 0, 0); id != 0 || len(off.Spans()) != 0 {
		t.Error("a disabled tracer records nothing")
	}
}

func TestAlternatingTracerRecordsEveryOtherChunk(t *testing.T) {
	tr := alternatingTracer(2)
	for i := 0; i < 7; i++ { // chunks: on, off, on, and a partial off
		tr.Op()
		tr.End(tr.Begin("op", 0, 0))
		tr.Count("ops", 1)
	}
	if n := len(tr.Spans()); n != 4 || tr.counts["ops"] != 4 {
		t.Errorf("recorded %d spans and %d counts, want 4 and 4 (ops 0, 1, 4, 5)", n, tr.counts["ops"])
	}
	if len(tr.onS) != 2 || len(tr.offS) != 1 {
		t.Errorf("closed chunks on=%d off=%d, want 2 and 1 (the partial chunk is dropped)", len(tr.onS), len(tr.offS))
	}
	whole := alternatingTracer(2)
	for i := 0; i < 4; i++ {
		whole.Op()
	}
	whole.Flush()
	whole.Flush()
	if len(whole.onS) != 1 || len(whole.offS) != 1 {
		t.Errorf("after Flush closed chunks on=%d off=%d, want 1 and 1", len(whole.onS), len(whole.offS))
	}
	share, pairs, offMS := pairedOverhead([]float64{1.1, 2.2, 9}, []float64{1, 2})
	if pairs != 2 || math.Abs(share-0.1) > 1e-12 || math.Abs(offMS-3000) > 1e-9 {
		t.Errorf("pairedOverhead = %v, %d, %v; want 0.1, 2, 3000", share, pairs, offMS)
	}
}

func TestLayerSubtraction(t *testing.T) {
	rest, share := subtractLayer(580, 130)
	if rest != 450 || math.Abs(share-450.0/580) > 1e-12 {
		t.Errorf("subtractLayer(580, 130) = %v, %v", rest, share)
	}
	if _, share := subtractLayer(0, 10); share != 0 {
		t.Error("a zero base has no share")
	}
}

// loads names, per workload, the layers it exercises; a workload may
// report per-layer metrics of those layers only, plus the run-wide
// trace.* and load.* records.
var loads = map[string][]string{
	"batch-fuse":     {"data.", "core."},
	"ingest":         {"stream.", "http.observe"},
	"query-mix":      {"stream.", "query.", "http.query"},
	"cluster-ingest": {"cluster.", "http.router"},
}

// ownE2E names the workload-specific end-to-end metrics each workload
// measures beyond the shared e2eMetrics.
var ownE2E = map[string][]string{
	"batch-fuse":     {"fuse_s"},
	"ingest":         {"claims_per_s", "observe_p50_ms", "observe_p99_ms"},
	"query-mix":      {"queries_per_s", "lookup_p50_ms", "lookup_p99_ms", "topk_p50_ms", "group_p50_ms", "export_p50_ms", "observe_p50_ms"},
	"cluster-ingest": {"claims_per_s", "observe_p50_ms", "observe_p99_ms"},
}

func TestWorkloadsEmitOnlyWhatTheyMeasure(t *testing.T) {
	declared := map[string]bool{}
	for _, w := range workloads() {
		for _, m := range w.measures {
			if strings.HasPrefix(m, "load.") || slices.Contains(e2eMetrics, m) || slices.Contains(ownE2E[w.name], m) {
				continue
			}
			t.Errorf("%s declares end-to-end metric %s, which it does not measure", w.name, m)
		}
		for _, m := range e2eMetrics {
			if !slices.Contains(w.measures, m) {
				t.Errorf("%s does not measure shared end-to-end metric %s", w.name, m)
			}
		}
		for _, l := range w.layers {
			declared[l] = true
			if unitOf(l) == "" {
				t.Errorf("%s declares %s, which is not in the layer table", w.name, l)
			}
			if strings.HasPrefix(l, "trace.") || strings.HasPrefix(l, "load.") {
				continue
			}
			if !slices.ContainsFunc(loads[w.name], func(p string) bool { return strings.HasPrefix(l, p) }) {
				t.Errorf("%s declares %s from a layer it bypasses", w.name, l)
			}
		}
	}
	for _, l := range layerTable {
		if !declared[l.name] && !slices.Contains(alwaysReported, l.name) {
			t.Errorf("layer metric %s is measured by no workload", l.name)
		}
	}
}

func TestValidateRejectsUndeclaredAndMissingMetrics(t *testing.T) {
	res := newResult()
	res.attempted = 1
	res.set("setup_s", 1, "s", 1)
	if err := validate(res, []string{"setup_s"}); err != nil {
		t.Errorf("valid result rejected: %v", err)
	}
	res.set("observe_p50_ms", 1, "ms", 1)
	if err := validate(res, []string{"setup_s"}); err == nil {
		t.Error("an undeclared metric must fail the run")
	}
	if err := validate(newResult(), []string{"setup_s"}); err == nil {
		t.Error("a declared but unmeasured metric must fail the run")
	}
	res = newResult()
	res.attempted = 1
	res.set("setup_s", math.NaN(), "s", 1)
	if err := validate(res, []string{"setup_s"}); err == nil {
		t.Error("a NaN metric must fail the run")
	}
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bm); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bm.Workloads {
		names = append(names, w.Name)
		if findWorkload(w.Name) == nil {
			t.Errorf("BENCHMARK.json workload %s has no implementation", w.Name)
		}
	}
	if len(names) != len(workloads()) {
		t.Errorf("BENCHMARK.json lists workloads %v, code has %d", names, len(workloads()))
	}
	var e2e []string
	for _, m := range bm.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	if !slices.Equal(e2e, e2eMetrics) {
		t.Errorf("end_to_end = %v, code reports %v", e2e, e2eMetrics)
	}
	if len(bm.PerLayer) != len(layerTable) {
		t.Fatalf("per_layer has %d metrics, layer table %d", len(bm.PerLayer), len(layerTable))
	}
	doc, err := os.ReadFile("LAYERS.md")
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range bm.PerLayer {
		if l := layerTable[i]; m.Name != l.name || m.Unit != l.unit {
			t.Errorf("per_layer[%d] = %s %s, layer table %s %s", i, m.Name, m.Unit, l.name, l.unit)
		}
		if !strings.Contains(string(doc), "`"+m.Name+"`") {
			t.Errorf("LAYERS.md does not map %s", m.Name)
		}
	}
}

func TestPromCounters(t *testing.T) {
	m := promCounters([]byte("# TYPE x counter\nx 3\ny{a=\"1\"} 2\ny{a=\"2\"} 5\nz 1e3\n"))
	if m["x"] != 3 || sumFamily(m, "y") != 7 || m["z"] != 1000 || sumFamily(m, "missing") != 0 {
		t.Errorf("parsed %v", m)
	}
}

func TestExpectationPinsOutputsAcrossRuns(t *testing.T) {
	e := &env{seed: 7, seconds: 3, build: "b1", expect: t.TempDir()}
	for i, tc := range []struct {
		got  map[string]string
		want bool
	}{
		{map[string]string{"digest": "aa"}, true},
		{map[string]string{"digest": "aa", "accuracy": "0.9"}, true},
		{map[string]string{"digest": "aa", "accuracy": "0.9"}, true},
		{map[string]string{"digest": "bb"}, false},
	} {
		ok, msg, err := e.expectation("w", tc.got)
		if err != nil || ok != tc.want {
			t.Errorf("run %d: ok=%v (%s) err=%v, want ok=%v", i, ok, msg, err, tc.want)
		}
	}
	// A rebuilt program may rightly change its outputs: it is pinned
	// against its own first run, not against the earlier build's.
	e.build = "b2"
	for i, want := range []bool{true, true, false} {
		got := map[string]string{"digest": "bb"}
		if i == 2 {
			got["digest"] = "aa"
		}
		if ok, msg, err := e.expectation("w", got); err != nil || ok != want {
			t.Errorf("rebuilt run %d: ok=%v (%s) err=%v, want ok=%v", i, ok, msg, err, want)
		}
	}
}

func TestExportDigestIgnoresRowOrderOnly(t *testing.T) {
	a := exportDigest([]byte("object,value,confidence\no1,v1,0.5000\no2,v2,1.0000\n"))
	b := exportDigest([]byte("object,value,confidence\no2,v2,1.0000\no1,v1,0.5000\n"))
	c := exportDigest([]byte("object,value,confidence\no2,v2,1.0000\no1,v1,0.5001\n"))
	if a != b || a == c {
		t.Error("the export digest must see row content, not row order")
	}
}

func TestExpectedBarriersFollowsTheRouterRule(t *testing.T) {
	reqs := requests(make([]stream.Triple, 64*33)) // 2112 claims in 64-claim requests
	if got := expectedBarriers(reqs); got != 2 {
		t.Errorf("barriers = %d, want 2 (after claims 1024 and 2048)", got)
	}
}
