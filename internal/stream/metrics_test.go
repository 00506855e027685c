package stream

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"slimfast/internal/obs"
)

// TestEngineMetrics wires the full instrumentation seam and drives
// ingest, epoch refresh, eviction, Refine and the online learner,
// requiring every family to move.
func TestEngineMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	opts := testEngineOptions()
	opts.EpochLength = 64
	opts.MaxObjects = 40
	opts.Features = map[string][]string{"s0": {"pipe=a"}, "s1": {"pipe=b"}}
	e, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	e.SetMetrics(m)

	for o := 0; o < 120; o++ {
		for s := 0; s < 4; s++ {
			e.Observe(fmt.Sprintf("s%d", s), fmt.Sprintf("o%03d", o), fmt.Sprintf("v%d", o%7))
		}
	}
	e.Refine(2)

	if got := m.Observations.Value(); got != 480 {
		t.Errorf("observations = %d, want 480", got)
	}
	if m.EpochRefreshes.Value() == 0 {
		t.Error("no epoch refreshes counted")
	}
	if n := histogramCount(t, reg, "slimfast_engine_epoch_refresh_seconds", nil); n != m.EpochRefreshes.Value() {
		t.Errorf("refresh histogram count %d != refresh counter %d", n, m.EpochRefreshes.Value())
	}
	if m.Epoch.Value() <= 0 {
		t.Errorf("epoch gauge = %v, want > 0", m.Epoch.Value())
	}
	if got := m.RefineSweeps.Value(); got != 2 {
		t.Errorf("refine sweeps = %d, want 2", got)
	}
	if m.EvictedObjects.Value() == 0 {
		t.Error("no evictions counted under a 40-object cap with 120 objects")
	}
	if m.LearnerEpochs.Value() == 0 {
		t.Error("no learner epochs counted in online mode")
	}
	if m.FeatureWeightNorm.Value() == 0 {
		t.Error("feature weight norm gauge never set")
	}

	var sb strings.Builder
	if err := reg.Write(&sb); err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{
		"slimfast_engine_observations_total",
		"slimfast_engine_epoch_refreshes_total",
		"slimfast_engine_epoch_refresh_seconds_bucket",
		"slimfast_engine_refine_sweeps_total",
		"slimfast_engine_evicted_objects_total",
	} {
		if !strings.Contains(sb.String(), fam) {
			t.Errorf("exposition missing %s", fam)
		}
	}
}

// TestCheckpointStoreMetrics covers the write and restore counters,
// including the bytes gauge matching the file on disk.
func TestCheckpointStoreMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	sm := NewStoreMetrics(reg)
	e, err := NewEngine(testEngineOptions())
	if err != nil {
		t.Fatal(err)
	}
	e.Observe("s0", "o0", "v0")

	cs := NewCheckpointStore(filepath.Join(t.TempDir(), "engine.ckpt"), 2)
	cs.Metrics = sm
	if err := cs.Write(e); err != nil {
		t.Fatal(err)
	}
	if err := cs.Write(e); err != nil {
		t.Fatal(err)
	}
	if got := sm.Writes.Value(); got != 2 {
		t.Errorf("writes = %d, want 2", got)
	}
	if n := histogramCount(t, reg, "slimfast_checkpoint_write_seconds", nil); n != 2 {
		t.Errorf("write histogram count = %d, want 2", n)
	}
	if sm.LastBytes.Value() <= 0 {
		t.Errorf("last bytes gauge = %v, want > 0", sm.LastBytes.Value())
	}
	if _, _, err := cs.Restore(); err != nil {
		t.Fatal(err)
	}
	if sm.Restores.Value() != 1 {
		t.Errorf("restores = %d, want 1", sm.Restores.Value())
	}
	if sm.Fallbacks.Value() != 0 {
		t.Errorf("fallbacks = %d, want 0 for a clean restore", sm.Fallbacks.Value())
	}
	if sm.WriteErrors.Value() != 0 {
		t.Errorf("write errors = %d, want 0", sm.WriteErrors.Value())
	}
}

// TestObserveZeroAllocWithMetrics is the instrumented sibling of
// BenchmarkStreamIngest's 0 allocs/op headline: with the full metrics
// seam attached, a steady-state Observe (interned source/value/object,
// no epoch boundary) must not allocate.
func TestObserveZeroAllocWithMetrics(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	reg := obs.NewRegistry()
	opts := testEngineOptions()
	opts.EpochLength = 1 << 30 // no refresh inside the measured window
	e, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	e.SetMetrics(NewMetrics(reg))

	// Warm: intern everything and let the claim slabs reach capacity.
	vals := [2]string{"v0", "v1"}
	for i := 0; i < 64; i++ {
		e.Observe("s0", "o0", vals[i%2])
		e.Observe("s1", "o0", vals[(i+1)%2])
	}
	i := 0
	if n := testing.AllocsPerRun(500, func() {
		e.Observe("s0", "o0", vals[i%2]) // value flip: the O(domain) delta path
		i++
	}); n != 0 {
		t.Errorf("instrumented Observe allocates %v per op, want 0", n)
	}
}

// TestObserveBatchAllocsFlat pins ObserveBatch's reusable scratch: in
// steady state (everything interned, no epoch boundary) a 64-claim and
// a 1024-claim batch allocate the same number of times, so no
// allocation scales with the batch.
func TestObserveBatchAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	opts := testEngineOptions()
	opts.Workers = 1
	opts.EpochLength = 1 << 30 // no refresh inside the measured window
	e, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	e.SetMetrics(NewMetrics(obs.NewRegistry()))
	batches := func(n int) [2][]Triple {
		var out [2][]Triple
		for pass := range out {
			for i := 0; i < n; i++ {
				out[pass] = append(out[pass], Triple{
					Source: fmt.Sprintf("s%d", i%16),
					Object: fmt.Sprintf("o%d", i/16),
					Value:  fmt.Sprintf("v%d", (i+pass)%3),
				})
			}
		}
		return out
	}
	allocs := func(n int) float64 {
		bs := batches(n)
		for i := 0; i < 8; i++ { // warm: intern, grow the slabs and the scratch
			e.ObserveBatch(bs[i%2])
		}
		i := 0
		return testing.AllocsPerRun(100, func() {
			e.ObserveBatch(bs[i%2]) // values flip: the O(domain) delta path
			i++
		})
	}
	small, large := allocs(64), allocs(1024)
	if small != large {
		t.Errorf("ObserveBatch allocates %v per 64-claim batch but %v per 1024-claim batch, want equal", small, large)
	}
}

// histogramCount reads a histogram series' _count sample from the
// registry's exposition.
func histogramCount(t *testing.T, reg *obs.Registry, name string, labels map[string]string) uint64 {
	t.Helper()
	var sb strings.Builder
	if err := reg.Write(&sb); err != nil {
		t.Fatal(err)
	}
	fams, err := obs.Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	f := fams[name]
	if f == nil {
		t.Fatalf("exposition has no %s family", name)
	}
	v, ok := f.Value(name+"_count", labels)
	if !ok {
		t.Fatalf("exposition has no %s_count%v sample", name, labels)
	}
	return uint64(v)
}
