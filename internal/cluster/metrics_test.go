package cluster

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"slimfast/internal/obs"
)

// TestRouterMetrics wires the instrumentation seam through a fake
// cluster and requires the fan-out, claim, barrier and probe families
// to move with the work.
func TestRouterMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	met := NewMetrics(reg)
	r, _ := fakeCluster(t, 3, func(cfg *Config) { cfg.Metrics = met })

	claims := testClaims(16, 8) // batch 4, epoch 8 -> 4 chunks, 2 barriers
	if _, err := r.Ingest(context.Background(), claims, "seq-m"); err != nil {
		t.Fatal(err)
	}
	if got := met.Claims.Value(); got != 16 {
		t.Errorf("claims counter = %d, want 16", got)
	}
	if got := met.Barriers.Value(); got != 2 {
		t.Errorf("barriers counter = %d, want 2", got)
	}
	var fanReqs, fanObs uint64
	for j := 0; j < 3; j++ {
		p := strconv.Itoa(j)
		fanReqs += met.FanoutRequests.With(p).Value()
		fanObs += histogramCount(t, reg, "slimfast_router_fanout_seconds", map[string]string{"partition": p})
	}
	if fanReqs == 0 {
		t.Error("no fan-out requests counted")
	}
	if fanObs != fanReqs {
		t.Errorf("fan-out latency observations %d != fan-out requests %d", fanObs, fanReqs)
	}

	if status, _ := r.Health(context.Background()); status != "ok" {
		t.Fatalf("health = %q, want ok", status)
	}
	if got := met.DownPartitions.Value(); got != 0 {
		t.Errorf("down partitions = %v after a healthy sweep, want 0", got)
	}

	var sb strings.Builder
	if err := reg.Write(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`slimfast_router_fanout_requests_total{partition="0"}`,
		"slimfast_router_claims_total 16",
		"slimfast_router_barriers_total 2",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
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
