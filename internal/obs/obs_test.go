package obs

import (
	"io"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "ops")
	g := r.Gauge("test_depth", "depth")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 100} {
		h.Observe(v)
	}
	if got := count(h); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	if got := h.Sum(); math.Abs(got-105.65) > 1e-9 {
		t.Fatalf("sum = %v, want 105.65", got)
	}
	var sb strings.Builder
	if err := r.Write(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`test_seconds_bucket{le="0.1"} 2`, // 0.05 and 0.1 (le is inclusive)
		`test_seconds_bucket{le="1"} 3`,
		`test_seconds_bucket{le="10"} 4`,
		`test_seconds_bucket{le="+Inf"} 5`,
		`test_seconds_count 5`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestWriteDeterminism: the exposition must be byte-identical across
// writes, and independent of child registration order — families sort
// by name, children by label values.
func TestWriteDeterminism(t *testing.T) {
	build := func(order []string) string {
		r := NewRegistry()
		r.Counter("test_b_total", "second family")
		v := r.CounterVec("test_a_total", "first family", "route", "status")
		for _, route := range order {
			v.With(route, "200").Inc()
		}
		var sb strings.Builder
		if err := r.Write(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	fwd := build([]string{"/observe", "/estimates", "/refine"})
	rev := build([]string{"/refine", "/estimates", "/observe"})
	if fwd != rev {
		t.Fatalf("exposition depends on registration order:\n%s\n--- vs ---\n%s", fwd, rev)
	}
	if i := strings.Index(fwd, "test_a_total"); i < 0 || strings.Index(fwd, "test_b_total") < i {
		t.Fatalf("families not sorted by name:\n%s", fwd)
	}
	if again := build([]string{"/observe", "/estimates", "/refine"}); again != fwd {
		t.Fatalf("exposition not stable across writes")
	}
}

// TestRoundTrip writes a registry with every metric kind — including
// label values and help text that need escaping — and parses the
// exposition back, requiring types, help, and values to survive.
func TestRoundTrip(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("rt_ops_total", `ops with a \ backslash`)
	c.Add(7)
	g := r.Gauge("rt_temp", "multi\nline help")
	g.Set(-3.25)
	cv := r.CounterVec("rt_errs_total", "errors", "kind")
	cv.With(`weird "quoted" \ value`).Add(2)
	cv.With("line\nbreak").Inc()
	h := r.HistogramVec("rt_lat_seconds", "latency", []float64{0.5, 2}, "route")
	h.With("/x").Observe(0.1)
	h.With("/x").Observe(1)
	h.With("/x").Observe(99)

	var sb strings.Builder
	if err := r.Write(&sb); err != nil {
		t.Fatal(err)
	}
	fams, err := Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("Parse: %v\n%s", err, sb.String())
	}

	ops := fams["rt_ops_total"]
	if ops == nil || ops.Type != "counter" || ops.Help != `ops with a \ backslash` {
		t.Fatalf("rt_ops_total family mangled: %+v", ops)
	}
	if v, ok := ops.Value("rt_ops_total", nil); !ok || v != 7 {
		t.Fatalf("rt_ops_total = %v (ok=%v), want 7", v, ok)
	}
	temp := fams["rt_temp"]
	if temp == nil || temp.Type != "gauge" || temp.Help != "multi\nline help" {
		t.Fatalf("rt_temp family mangled: %+v", temp)
	}
	if v, ok := temp.Value("rt_temp", nil); !ok || v != -3.25 {
		t.Fatalf("rt_temp = %v, want -3.25", v)
	}
	errs := fams["rt_errs_total"]
	if v, ok := errs.Value("rt_errs_total", map[string]string{"kind": `weird "quoted" \ value`}); !ok || v != 2 {
		t.Fatalf("escaped label value did not round-trip: %v %v", v, ok)
	}
	if v, ok := errs.Value("rt_errs_total", map[string]string{"kind": "line\nbreak"}); !ok || v != 1 {
		t.Fatalf("newline label value did not round-trip: %v %v", v, ok)
	}
	lat := fams["rt_lat_seconds"]
	if lat == nil || lat.Type != "histogram" {
		t.Fatalf("rt_lat_seconds family mangled: %+v", lat)
	}
	if v, ok := lat.Value("rt_lat_seconds_bucket", map[string]string{"route": "/x", "le": "+Inf"}); !ok || v != 3 {
		t.Fatalf("+Inf bucket = %v, want 3", v)
	}
	if v, ok := lat.Value("rt_lat_seconds_count", map[string]string{"route": "/x"}); !ok || v != 3 {
		t.Fatalf("histogram count = %v, want 3", v)
	}
	if v, ok := lat.Value("rt_lat_seconds_sum", map[string]string{"route": "/x"}); !ok || math.Abs(v-100.1) > 1e-9 {
		t.Fatalf("histogram sum = %v, want 100.1", v)
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("h_ops_total", "ops").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != ContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, ContentType)
	}
	if _, err := Parse(strings.NewReader(rec.Body.String())); err != nil {
		t.Fatalf("scrape body does not parse: %v", err)
	}
	if !strings.Contains(rec.Body.String(), "h_ops_total 1\n") {
		t.Fatalf("scrape missing sample:\n%s", rec.Body.String())
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"9name 1",
		"ok_name notanumber",
		`ok_name{l="unterminated 1`,
		`ok_name{l="v" 1`,
		`ok_name{=x} 1`,
	} {
		if _, err := Parse(strings.NewReader(bad)); err == nil {
			t.Errorf("Parse(%q) accepted a malformed line", bad)
		}
	}
}

func TestRegistrationPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	r := NewRegistry()
	r.Counter("dup_total", "x")
	mustPanic("duplicate", func() { r.Gauge("dup_total", "y") })
	mustPanic("bad name", func() { r.Counter("9starts_with_digit", "x") })
	mustPanic("bad label", func() { r.CounterVec("v_total", "x", "le") })
	mustPanic("bad buckets", func() { r.Histogram("h_seconds", "x", []float64{1, 1}) })
	v := r.CounterVec("arity_total", "x", "a", "b")
	mustPanic("label arity", func() { v.With("only-one") })
}

func TestVecChildIdentity(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("id_total", "x", "k")
	if v.With("a") != v.With("a") {
		t.Fatal("With returned distinct children for the same label values")
	}
	if v.With("a") == v.With("b") {
		t.Fatal("With returned the same child for different label values")
	}
}

func TestNilReceiversAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Sum() != 0 {
		t.Fatal("nil metrics reported nonzero values")
	}
}

func TestConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("cc_total", "x")
	g := r.Gauge("cc_gauge", "x")
	h := r.Histogram("cc_seconds", "x", []float64{1})
	v := r.CounterVec("cc_vec_total", "x", "k")
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := string(rune('a' + w%4))
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(0.5)
				v.With(key).Inc()
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*per)
	}
	if g.Value() != workers*per {
		t.Fatalf("gauge = %v, want %d", g.Value(), workers*per)
	}
	if n := count(h); n != workers*per {
		t.Fatalf("histogram count = %d, want %d", n, workers*per)
	}
	var vecTotal uint64
	for _, k := range []string{"a", "b", "c", "d"} {
		vecTotal += v.With(k).Value()
	}
	if vecTotal != workers*per {
		t.Fatalf("vec total = %d, want %d", vecTotal, workers*per)
	}
}

// The increment paths must stay allocation-free: they run inside the
// engine's Observe hot path, whose 0 allocs/op contract is gated by
// BenchmarkStreamIngest.
func TestIncrementsAreZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	r := NewRegistry()
	c := r.Counter("za_total", "x")
	g := r.Gauge("za_gauge", "x")
	h := r.Histogram("za_seconds", "x", nil)
	child := r.CounterVec("za_vec_total", "x", "k").With("hot") // resolved once, held
	check := func(name string, f func()) {
		t.Helper()
		if n := testing.AllocsPerRun(200, f); n != 0 {
			t.Errorf("%s allocates %v per op, want 0", name, n)
		}
	}
	check("Counter.Inc", func() { c.Inc() })
	check("Gauge.Set", func() { g.Set(3.14) })
	check("Gauge.Add", func() { g.Add(0.5) })
	check("Histogram.Observe", func() { h.Observe(0.0042) })
	check("cached vec child Inc", func() { child.Inc() })
}

// BenchmarkMetricsScrape renders a registry of realistic size — the
// families the server exposes, with per-route and per-status children
// populated — the cost of one GET /v1/metrics.
func BenchmarkMetricsScrape(b *testing.B) {
	r := NewRegistry()
	routes := []string{"/v1/observe", "/v1/estimates", "/v1/sources", "/v1/features", "/v1/refine", "/v1/checkpoint", "/v1/healthz", "/v1/readyz", "/v1/stats", "/v1/query"}
	reqs := r.CounterVec("slimfast_http_requests_total", "requests", "route", "status")
	lat := r.HistogramVec("slimfast_http_request_duration_seconds", "latency", nil, "route")
	for _, rt := range routes {
		for _, st := range []string{"200", "400", "503"} {
			reqs.With(rt, st).Add(17)
		}
		for i := 0; i < 32; i++ {
			lat.With(rt).Observe(float64(i) / 100)
		}
	}
	r.Counter("slimfast_engine_observations_total", "triples").Add(1 << 20)
	r.Gauge("slimfast_http_inflight_requests", "in flight").Set(3)
	r.Histogram("slimfast_engine_epoch_refresh_seconds", "epoch", nil).Observe(0.02)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Write(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// count is the histogram's total observation count.
func count(h *Histogram) uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}
