// Package obs is a zero-dependency observability toolkit: a
// Prometheus-text-format (0.0.4) metrics registry whose increment
// paths are lock-free and allocation-free, so instruments can live
// inside the streaming engine's Observe hot path without breaking its
// 0 allocs/op contract.
//
// Metrics are registered once at startup (registration panics on
// duplicate or malformed names — a wiring bug, not a runtime
// condition) and incremented from any goroutine. Counter, Gauge and
// Histogram methods are nil-receiver-safe no-ops, so a subsystem can
// carry an un-wired metrics struct at zero cost and zero branching at
// call sites.
//
// Labeled families (CounterVec, HistogramVec) resolve children through
// a read-locked map; hot paths should resolve With(...) once and keep
// the child pointer, which is then as cheap as a scalar metric.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// ContentType is the Prometheus text exposition content type served
// by Handler.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// DefBuckets are the default histogram upper bounds, in seconds,
// spanning sub-millisecond increments to multi-second epochs.
var DefBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Counter is a monotonically increasing counter.
type Counter struct{ n atomic.Uint64 }

// Inc adds one. Safe on a nil receiver (no-op).
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. Safe on a nil receiver (no-op).
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.n.Add(n)
}

// Value returns the current count (0 for a nil receiver).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Gauge is a float64 value that can go up and down, stored as atomic
// bits so Set is wait-free and Add is a CAS loop.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value. Safe on a nil receiver (no-op).
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add offsets the gauge by d. Safe on a nil receiver (no-op).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current gauge value (0 for a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets. Observe touches
// one bucket counter and CASes the running sum — no locks, no
// allocation.
type Histogram struct {
	upper  []float64 // ascending upper bounds; +Inf is implicit
	counts []atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

func newHistogram(upper []float64) *Histogram {
	return &Histogram{upper: upper, counts: make([]atomic.Uint64, len(upper)+1)}
}

// Observe records v. Safe on a nil receiver (no-op).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.upper) && v > h.upper[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Sum returns the sum of all observed values (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// child is one labeled series of a vec family.
type child struct {
	values []string
	c      *Counter
	h      *Histogram
}

// family is one exposition family: a name, a type, and either a
// scalar metric or a set of labeled children.
type family struct {
	name, help string
	kind       kind
	labels     []string
	buckets    []float64

	c *Counter
	g *Gauge
	h *Histogram

	mu       sync.RWMutex
	children map[string]*child
}

// childFor resolves (creating on first use) the child for a label
// value tuple. The fast path is a read-locked map hit.
func (f *family) childFor(values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: %s takes %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\xff")
	f.mu.RLock()
	ch := f.children[key]
	f.mu.RUnlock()
	if ch != nil {
		return ch
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if ch = f.children[key]; ch != nil {
		return ch
	}
	ch = &child{values: append([]string(nil), values...)}
	switch f.kind {
	case kindCounter:
		ch.c = &Counter{}
	case kindHistogram:
		ch.h = newHistogram(f.buckets)
	}
	f.children[key] = ch
	return ch
}

// CounterVec is a counter family partitioned by label values.
type CounterVec struct{ f *family }

// With resolves the counter for a label value tuple. Hot paths should
// call With once and keep the child.
func (v *CounterVec) With(values ...string) *Counter { return v.f.childFor(values).c }

// HistogramVec is a histogram family partitioned by label values.
type HistogramVec struct{ f *family }

// With resolves the histogram for a label value tuple.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.childFor(values).h }

// Registry holds a set of metric families and renders them in the
// Prometheus text format, sorted and byte-deterministic.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{fams: map[string]*family{}} }

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

func (r *Registry) register(f *family) {
	if !validName(f.name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", f.name))
	}
	for _, l := range f.labels {
		if !validName(l) || strings.ContainsRune(l, ':') || l == "le" {
			panic(fmt.Sprintf("obs: invalid label name %q on %s", l, f.name))
		}
	}
	if f.kind == kindHistogram {
		if len(f.buckets) == 0 {
			f.buckets = DefBuckets
		}
		for i := 1; i < len(f.buckets); i++ {
			if f.buckets[i] <= f.buckets[i-1] {
				panic(fmt.Sprintf("obs: %s buckets must be strictly increasing", f.name))
			}
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.fams[f.name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric %q", f.name))
	}
	r.fams[f.name] = f
}

// Counter registers and returns a scalar counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(&family{name: name, help: help, kind: kindCounter, c: c})
	return c
}

// Gauge registers and returns a scalar gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(&family{name: name, help: help, kind: kindGauge, g: g})
	return g
}

// Histogram registers and returns a scalar histogram. A nil buckets
// slice selects DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := &family{name: name, help: help, kind: kindHistogram, buckets: buckets}
	r.register(f)
	f.h = newHistogram(f.buckets)
	return f.h
}

// CounterVec registers a counter family with the given label names.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	f := &family{name: name, help: help, kind: kindCounter, labels: labels, children: map[string]*child{}}
	r.register(f)
	return &CounterVec{f: f}
}

// HistogramVec registers a histogram family with the given label
// names. A nil buckets slice selects DefBuckets.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	f := &family{name: name, help: help, kind: kindHistogram, labels: labels, buckets: buckets, children: map[string]*child{}}
	r.register(f)
	return &HistogramVec{f: f}
}

var (
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
)

func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Write renders every family in the text exposition format. The
// output is byte-deterministic: families sort by name, children by
// label values, and labels appear in declaration order.
func (r *Registry) Write(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	bw := bufio.NewWriter(w)
	for _, f := range fams {
		f.expo(bw)
	}
	return bw.Flush()
}

func (f *family) expo(bw *bufio.Writer) {
	bw.WriteString("# HELP ")
	bw.WriteString(f.name)
	bw.WriteByte(' ')
	helpEscaper.WriteString(bw, f.help)
	bw.WriteString("\n# TYPE ")
	bw.WriteString(f.name)
	bw.WriteByte(' ')
	bw.WriteString(f.kind.String())
	bw.WriteByte('\n')

	if f.labels == nil {
		switch f.kind {
		case kindCounter:
			writeSample(bw, f.name, nil, nil, "", strconv.FormatUint(f.c.Value(), 10))
		case kindGauge:
			writeSample(bw, f.name, nil, nil, "", formatFloat(f.g.Value()))
		case kindHistogram:
			writeHistogramSeries(bw, f.name, nil, nil, f.h)
		}
		return
	}

	f.mu.RLock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	children := make([]*child, 0, len(keys))
	sort.Strings(keys)
	for _, k := range keys {
		children = append(children, f.children[k])
	}
	f.mu.RUnlock()

	for _, ch := range children {
		switch f.kind {
		case kindCounter:
			writeSample(bw, f.name, f.labels, ch.values, "", strconv.FormatUint(ch.c.Value(), 10))
		case kindHistogram:
			writeHistogramSeries(bw, f.name, f.labels, ch.values, ch.h)
		}
	}
}

// writeSample emits one `name{labels} value` line; le, when non-empty,
// is appended as the trailing bucket label.
func writeSample(bw *bufio.Writer, name string, lnames, lvals []string, le, value string) {
	bw.WriteString(name)
	if len(lnames) > 0 || le != "" {
		bw.WriteByte('{')
		for i := range lnames {
			if i > 0 {
				bw.WriteByte(',')
			}
			bw.WriteString(lnames[i])
			bw.WriteString(`="`)
			labelEscaper.WriteString(bw, lvals[i])
			bw.WriteByte('"')
		}
		if le != "" {
			if len(lnames) > 0 {
				bw.WriteByte(',')
			}
			bw.WriteString(`le="`)
			bw.WriteString(le)
			bw.WriteByte('"')
		}
		bw.WriteByte('}')
	}
	bw.WriteByte(' ')
	bw.WriteString(value)
	bw.WriteByte('\n')
}

func writeHistogramSeries(bw *bufio.Writer, name string, lnames, lvals []string, h *Histogram) {
	var cum uint64
	for i, ub := range h.upper {
		cum += h.counts[i].Load()
		writeSample(bw, name+"_bucket", lnames, lvals, formatFloat(ub), strconv.FormatUint(cum, 10))
	}
	cum += h.counts[len(h.upper)].Load()
	writeSample(bw, name+"_bucket", lnames, lvals, "+Inf", strconv.FormatUint(cum, 10))
	writeSample(bw, name+"_sum", lnames, lvals, "", formatFloat(h.Sum()))
	writeSample(bw, name+"_count", lnames, lvals, "", strconv.FormatUint(cum, 10))
}

// Handler serves the registry as a Prometheus scrape endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		_ = r.Write(w)
	})
}
