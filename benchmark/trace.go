package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// Span is one timed call recorded by the traced run. Spans of one
// workload op share Trace; a layer call's Parent is the op's span.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// Tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing. An alternating tracer flips recording on and off
// after every chunk of ops and times each chunk, so the recording
// overhead is measured on neighbouring work under the same host
// conditions. It is used from one goroutine.
type Tracer struct {
	on     bool
	t0     time.Time
	spans  []Span
	counts map[string]int

	chunk    int // ops per chunk; 0 = never alternate
	ops      int
	closedAt int // ops when the last chunk was closed
	chunkT0  time.Time
	onS      []float64 // wall seconds of chunks recorded with spans
	offS     []float64 // and without
}

func newTracer(on bool) *Tracer { return &Tracer{on: on, t0: time.Now(), counts: map[string]int{}} }

// Count adds n to the named count while recording is on, so counts
// and spans cover the same ops.
func (t *Tracer) Count(name string, n int) {
	if t.on {
		t.counts[name] += n
	}
}

// alternatingTracer records the first chunk ops, then skips the next
// chunk, and so on.
func alternatingTracer(chunk int) *Tracer {
	t := newTracer(true)
	t.chunk, t.chunkT0 = chunk, t.t0
	return t
}

// Op marks the start of one workload op; on an alternating tracer it
// closes a finished chunk and flips recording.
func (t *Tracer) Op() {
	if t.chunk == 0 {
		return
	}
	if t.ops == 0 {
		t.chunkT0 = time.Now() // set-up before the first op is no chunk's
	}
	t.closeChunk()
	t.ops++
}

// Flush closes the last chunk when it is complete, so a replay of a
// whole number of chunks loses none. Call it after the last op.
func (t *Tracer) Flush() {
	if t.chunk != 0 {
		t.closeChunk()
	}
}

// closeChunk times a just-completed chunk and flips recording.
func (t *Tracer) closeChunk() {
	if t.ops == 0 || t.ops%t.chunk != 0 || t.ops == t.closedAt {
		return
	}
	d := time.Since(t.chunkT0).Seconds()
	if t.on {
		t.onS = append(t.onS, d)
	} else {
		t.offS = append(t.offS, d)
	}
	t.on = !t.on
	t.closedAt = t.ops
	t.chunkT0 = time.Now()
}

// Overhead returns the recording overhead, the median over adjacent
// (on, off) chunk pairs of (on−off)/off, with the pair count and the
// summed wall time of the chunks recorded without spans, its base. A
// trailing partial chunk is not counted.
func (t *Tracer) Overhead() (share float64, pairs int, offMS float64) {
	return pairedOverhead(t.onS, t.offS)
}

// pairedOverhead compares on[i] with off[i].
func pairedOverhead(on, off []float64) (share float64, pairs int, offMS float64) {
	n := min(len(on), len(off))
	r := make([]float64, n)
	for i := range r {
		r[i] = (on[i] - off[i]) / off[i]
		offMS += off[i] * 1e3
	}
	return median(r), n, offMS
}

// Begin opens a span and returns its id (0 when recording is off).
// trace 0 starts a new trace named by the span's own id.
func (t *Tracer) Begin(name string, parent, trace int) int {
	if !t.on {
		return 0
	}
	id := len(t.spans) + 1
	if trace == 0 {
		trace = id
	}
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Trace: trace, Name: name, Start: int64(time.Since(t.t0))})
	return id
}

// End closes span id and returns its duration.
func (t *Tracer) End(id int) time.Duration {
	if id == 0 {
		return 0
	}
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	return time.Duration(s.End - s.Start)
}

// Span runs fn inside a child span of parent.
func (t *Tracer) Span(name string, parent int, fn func()) time.Duration {
	id := t.Begin(name, parent, t.traceOf(parent))
	fn()
	return t.End(id)
}

// traceOf returns the trace id of span id (0 for none).
func (t *Tracer) traceOf(id int) int {
	if id == 0 {
		return 0
	}
	return t.spans[id-1].Trace
}

// rename relabels span id once its outcome is known.
func (t *Tracer) rename(id int, name string) {
	if id != 0 {
		t.spans[id-1].Name = name
	}
}

// Spans returns the recorded spans.
func (t *Tracer) Spans() []Span { return t.spans }

// selfTimes returns each span's duration minus the part of its
// interval covered by its children (overlapping children count once,
// and child time outside the parent's interval is ignored), indexed
// like spans.
func selfTimes(spans []Span) []time.Duration {
	kids := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		cs := append([]Span(nil), kids[s.ID]...)
		sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
		var covered, reach int64
		reach = s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[i] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// layerTimes sums self time per span name.
func layerTimes(spans []Span) map[string]time.Duration {
	self := selfTimes(spans)
	out := make(map[string]time.Duration)
	for i, s := range spans {
		out[s.Name] += self[i]
	}
	return out
}

// durations lists the wall durations of the spans named name, in
// recording order.
func durations(spans []Span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// writeSpans saves the spans as one JSON document.
func writeSpans(path string, spans []Span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// setOverhead records the alternating tracer's recording overhead.
func setOverhead(res *result, tr *Tracer) {
	share, pairs, offMS := tr.Overhead()
	res.set("trace.replay_ms", offMS, "ms", pairs)
	res.set("trace.overhead_share", share, "fraction", pairs)
}
