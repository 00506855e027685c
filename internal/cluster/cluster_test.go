package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"slimfast/internal/resilience"
	"slimfast/internal/stream"
)

// fakeNode is a minimal in-memory stand-in for a `stream -listen`
// member: it records forwarded bodies and idempotency keys, dedups on
// them like the real server, and answers the coordination endpoints
// with canned (empty) drains. The real-engine equivalence lives in
// cmd/slimfast's router golden test; these tests pin the router's own
// protocol mechanics.
type fakeNode struct {
	mu       sync.Mutex
	seqs     []string // every /observe idempotency key, in arrival order
	claims   int      // claims ingested (deduped)
	deduped  int      // /observe requests collapsed by key
	seen     map[string]bool
	drains   []string // /epoch/drain tags, in arrival order
	masses   []string // /epoch/mass tags, in arrival order
	applies  []stream.EpochRequest
	failObs  int // fail this many /observe requests with 500 first
	checkpts int
}

func (f *fakeNode) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/observe", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		defer f.mu.Unlock()
		if f.failObs > 0 {
			f.failObs--
			http.Error(w, "induced failure", http.StatusInternalServerError)
			return
		}
		seq := r.Header.Get(resilience.SeqHeader)
		f.seqs = append(f.seqs, seq)
		if seq != "" && f.seen[seq] {
			f.deduped++
			fmt.Fprintln(w, `{"ingested":0,"deduped":true}`)
			return
		}
		if seq != "" {
			f.seen[seq] = true
		}
		n := 0
		dec := json.NewDecoder(r.Body)
		for dec.More() {
			var v map[string]string
			if err := dec.Decode(&v); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			n++
		}
		f.claims += n
		fmt.Fprintf(w, `{"ingested":%d}`+"\n", n)
	})
	mux.HandleFunc("POST /v1/epoch/drain", func(w http.ResponseWriter, r *http.Request) {
		var req stream.EpochRequest
		json.NewDecoder(r.Body).Decode(&req)
		f.mu.Lock()
		f.drains = append(f.drains, req.Tag)
		f.mu.Unlock()
		json.NewEncoder(w).Encode(tagFirstReply{Tag: req.Tag, Sources: []stream.SourceStat{}})
	})
	mux.HandleFunc("POST /v1/epoch/mass", func(w http.ResponseWriter, r *http.Request) {
		var req stream.EpochRequest
		json.NewDecoder(r.Body).Decode(&req)
		f.mu.Lock()
		f.masses = append(f.masses, req.Tag)
		f.mu.Unlock()
		json.NewEncoder(w).Encode(tagFirstReply{Tag: req.Tag, Sources: []stream.SourceStat{
			{Source: "s0", Agree: 1, Total: 2},
		}})
	})
	mux.HandleFunc("POST /v1/epoch/apply", func(w http.ResponseWriter, r *http.Request) {
		var req stream.EpochRequest
		json.NewDecoder(r.Body).Decode(&req)
		f.mu.Lock()
		f.applies = append(f.applies, req)
		f.mu.Unlock()
		json.NewEncoder(w).Encode(map[string]any{"tag": req.Tag})
	})
	mux.HandleFunc("POST /v1/checkpoint", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		f.checkpts++
		f.mu.Unlock()
		fmt.Fprintln(w, `{}`)
	})
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("GET /v1/readyz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, `{"status":"ready"}`)
	})
	return mux
}

// tagFirstReply is the fake node's drain and mass reply. Its tag comes
// first, unlike a real member's canonical {"sources":…,"tag":…}, so
// every exchange here also covers the router's encoding/json fallback.
type tagFirstReply struct {
	Tag     string              `json:"tag"`
	Sources []stream.SourceStat `json:"sources"`
}

// fakeCluster starts n fake nodes and a router over them.
func fakeCluster(t testing.TB, n int, mutate func(*Config)) (*Router, []*fakeNode) {
	return wrappedCluster(t, n, nil, mutate)
}

// wrappedCluster is fakeCluster with node i served through wrap(i, h)
// when wrap is non-nil.
func wrappedCluster(t testing.TB, n int, wrap func(int, http.Handler) http.Handler, mutate func(*Config)) (*Router, []*fakeNode) {
	t.Helper()
	fakes := make([]*fakeNode, n)
	urls := make([]string, n)
	for i := range fakes {
		fakes[i] = &fakeNode{seen: map[string]bool{}}
		h := fakes[i].handler()
		if wrap != nil {
			h = wrap(i, h)
		}
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	cfg := Config{
		Nodes:       urls,
		Batch:       4,
		EpochLength: 8,
		Retry:       resilience.ClientConfig{MaxAttempts: 3},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r, fakes
}

// testClaims builds c claims over o distinct objects.
func testClaims(c, o int) []stream.Triple {
	out := make([]stream.Triple, c)
	for i := range out {
		out[i] = stream.Triple{
			Source: fmt.Sprintf("s%d", i%5),
			Object: fmt.Sprintf("obj-%d", i%o),
			Value:  fmt.Sprintf("v%d", i%3),
		}
	}
	return out
}

// TestIngestPartitionsByEngineHash: every claim lands on the node the
// engine's own shard hash selects — the invariant that makes N nodes
// interchangeable with N shards.
func TestIngestPartitionsByEngineHash(t *testing.T) {
	r, fakes := fakeCluster(t, 3, nil)
	claims := testClaims(64, 16)
	if _, err := r.Ingest(context.Background(), claims, "seq-a"); err != nil {
		t.Fatal(err)
	}
	want := make([]int, 3)
	for _, tr := range claims {
		want[stream.ShardIndex(tr.Object, 3)]++
	}
	for i, f := range fakes {
		if f.claims != want[i] {
			t.Fatalf("partition %d ingested %d claims, want %d", i, f.claims, want[i])
		}
		if got := r.Partition(claims[0].Object); got != stream.ShardIndex(claims[0].Object, 3) {
			t.Fatalf("Partition disagrees with stream.ShardIndex: %d", got)
		}
	}
}

// TestIngestBarriersAndDedup: a retried request re-forwards every
// chunk (restored nodes need the replay) with the same derived node
// keys, but claims count once and no extra barrier runs.
func TestIngestBarriersAndDedup(t *testing.T) {
	r, fakes := fakeCluster(t, 2, nil)
	claims := testClaims(16, 8) // batch 4, epoch 8 -> 4 chunks, 2 barriers
	res1, err := r.Ingest(context.Background(), claims, "seq-a")
	if err != nil {
		t.Fatal(err)
	}
	if res1.Ingested != 16 || res1.Claims != 16 || res1.Barriers != 2 {
		t.Fatalf("first ingest: %+v", res1)
	}
	firstSeqs := append([]string(nil), fakes[0].seqs...)
	res2, err := r.Ingest(context.Background(), claims, "seq-a")
	if err != nil {
		t.Fatal(err)
	}
	if res2.Ingested != 0 || res2.DedupedChunks != 4 || res2.Claims != 16 || res2.Barriers != 2 {
		t.Fatalf("retried ingest: %+v", res2)
	}
	for _, f := range fakes {
		if f.claims != 0 && f.deduped == 0 {
			t.Fatalf("node saw no dedup on the retry: %+v", f.seqs)
		}
		for _, tag := range f.drains {
			if tag != "e1" && tag != "e2" {
				t.Fatalf("unexpected barrier tag %q", tag)
			}
		}
		if len(f.drains) != 2 {
			t.Fatalf("node drained %d times, want 2", len(f.drains))
		}
	}
	// The retry re-sent the same derived keys, in the same order.
	if got := fakes[0].seqs[len(firstSeqs):]; len(got) != len(firstSeqs) {
		t.Fatalf("retry forwarded %d requests, first pass %d", len(got), len(firstSeqs))
	} else {
		for i := range got {
			if got[i] != firstSeqs[i] {
				t.Fatalf("retry key %d = %q, first pass %q", i, got[i], firstSeqs[i])
			}
		}
	}
	if !strings.HasPrefix(firstSeqs[0], "seq-a.c0.n") {
		t.Fatalf("derived node key = %q", firstSeqs[0])
	}
}

// TestIngestRetriesThroughNodeFailure: a node that sheds a request
// with 500 is retried by the resilience client and the ingest still
// lands exactly once.
func TestIngestRetriesThroughNodeFailure(t *testing.T) {
	r, fakes := fakeCluster(t, 2, nil)
	fakes[0].failObs = 1
	fakes[1].failObs = 1
	res, err := r.Ingest(context.Background(), testClaims(8, 8), "seq-b")
	if err != nil {
		t.Fatal(err)
	}
	if res.Ingested != 8 {
		t.Fatalf("ingested %d, want 8", res.Ingested)
	}
	if fakes[0].claims+fakes[1].claims != 8 {
		t.Fatalf("cluster holds %d claims, want 8", fakes[0].claims+fakes[1].claims)
	}
}

// TestCheckpointEveryBarrier: with CheckpointEpochs=1 every barrier
// checkpoints every node and writes the manifest.
func TestCheckpointEveryBarrier(t *testing.T) {
	manifest := filepath.Join(t.TempDir(), "cluster.json")
	r, fakes := fakeCluster(t, 2, func(c *Config) {
		c.CheckpointEpochs = 1
		c.ManifestPath = manifest
	})
	if _, err := r.Ingest(context.Background(), testClaims(16, 8), "seq-c"); err != nil {
		t.Fatal(err)
	}
	for i, f := range fakes {
		if f.checkpts != 2 {
			t.Fatalf("node %d checkpointed %d times, want 2", i, f.checkpts)
		}
	}
	m, err := LoadManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if m.Claims != 16 || m.Barriers != 2 {
		t.Fatalf("manifest: %+v", m)
	}
}

// TestManifestRestoreResumesState: a second router booted from the
// manifest resumes counters, dedup window and barrier position — a
// re-replayed request dedups instead of re-counting.
func TestManifestRestoreResumesState(t *testing.T) {
	manifest := filepath.Join(t.TempDir(), "cluster.json")
	mutate := func(c *Config) {
		c.CheckpointEpochs = 1
		c.ManifestPath = manifest
	}
	r1, fakes := fakeCluster(t, 2, mutate)
	claims := testClaims(16, 8)
	if _, err := r1.Ingest(context.Background(), claims, "seq-d"); err != nil {
		t.Fatal(err)
	}
	urls := r1.Nodes()
	r2, err := New(Config{
		Nodes: urls, Batch: 4, EpochLength: 8,
		CheckpointEpochs: 1, ManifestPath: manifest,
		Retry: resilience.ClientConfig{MaxAttempts: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := r2.Stats()
	if st.Claims != 16 || st.Barriers != 2 {
		t.Fatalf("restored stats: %+v", st)
	}
	res, err := r2.Ingest(context.Background(), claims, "seq-d")
	if err != nil {
		t.Fatal(err)
	}
	if res.Ingested != 0 || res.DedupedChunks != 4 {
		t.Fatalf("replay against restored router: %+v", res)
	}
	if res.Barriers != 2 {
		t.Fatalf("restored router re-ran barriers: %+v", res)
	}
	_ = fakes
}

// TestManifestRejectsLayoutChanges: node count, batch/epoch geometry
// and fold options are all part of the cluster's history; a config
// that changes them must be refused, not silently adopted.
func TestManifestRejectsLayoutChanges(t *testing.T) {
	manifest := filepath.Join(t.TempDir(), "cluster.json")
	r1, _ := fakeCluster(t, 2, func(c *Config) {
		c.CheckpointEpochs = 1
		c.ManifestPath = manifest
	})
	if _, err := r1.Ingest(context.Background(), testClaims(8, 8), "seq-e"); err != nil {
		t.Fatal(err)
	}
	urls := r1.Nodes()
	bad := []Config{
		{Nodes: urls[:1], Batch: 4, EpochLength: 8, ManifestPath: manifest},
		{Nodes: urls, Batch: 8, EpochLength: 8, ManifestPath: manifest},
		{Nodes: urls, Batch: 4, EpochLength: 16, ManifestPath: manifest},
		{Nodes: urls, Batch: 4, EpochLength: 8, ManifestPath: manifest,
			Opts: stream.Options{Decay: 0.99}},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Fatalf("config %d adopted an incompatible manifest", i)
		}
	}
	// The prior slots hold stream's constants; a manifest folded under
	// another prior is refused at boot, while the unedited one restores.
	m, err := LoadManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		edit     func(*ManifestOptions)
		restores bool
	}{
		{"unedited", func(*ManifestOptions) {}, true},
		{"init_accuracy 0.6", func(o *ManifestOptions) { o.InitAccuracy = 0.6 }, false},
		{"prior_strength 5", func(o *ManifestOptions) { o.PriorStrength = 5 }, false},
	} {
		edited := m
		tc.edit(&edited.Options)
		data, err := encodeManifest(edited)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "cluster.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = New(Config{Nodes: urls, Batch: 4, EpochLength: 8, ManifestPath: path})
		if (err == nil) != tc.restores {
			t.Errorf("%s manifest: New err = %v, want restored %v", tc.name, err, tc.restores)
		}
	}
}

// TestHealthDegradesPerPartition: probes never block, and the
// aggregate status walks ok -> degraded -> unavailable as partitions
// go dark.
func TestHealthDegradesPerPartition(t *testing.T) {
	fakes := make([]*fakeNode, 2)
	srvs := make([]*httptest.Server, 2)
	urls := make([]string, 2)
	for i := range fakes {
		fakes[i] = &fakeNode{seen: map[string]bool{}}
		srvs[i] = httptest.NewServer(fakes[i].handler())
		urls[i] = srvs[i].URL
	}
	defer srvs[1].Close()
	r, err := New(Config{Nodes: urls, Retry: resilience.ClientConfig{MaxAttempts: 1}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if status, _ := r.Ready(ctx); status != "ready" {
		t.Fatalf("status = %q, want ready", status)
	}
	srvs[0].Close()
	status, nodes := r.Ready(ctx)
	if status != "degraded" {
		t.Fatalf("status = %q, want degraded", status)
	}
	if nodes[0].OK || !nodes[1].OK {
		t.Fatalf("per-partition report wrong: %+v", nodes)
	}
	if status, _ := r.Health(ctx); status != "degraded" {
		t.Fatalf("health = %q, want degraded", status)
	}
	srvs[1].Close()
	if status, _ := r.Ready(ctx); status != "unavailable" {
		t.Fatalf("status = %q, want unavailable", status)
	}
}

// TestRefineTagsAdvance: two refine operations must not share tags, or
// the nodes' single-entry response caches would replay stale mass.
func TestRefineTagsAdvance(t *testing.T) {
	r, fakes := fakeCluster(t, 1, nil)
	ctx := context.Background()
	if _, err := r.Refine(ctx, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Refine(ctx, 1); err != nil {
		t.Fatal(err)
	}
	f := fakes[0]
	f.mu.Lock()
	defer f.mu.Unlock()
	wantMass := []string{"r1.s0", "r1.s1", "r2.s0"}
	if len(f.masses) != len(wantMass) {
		t.Fatalf("mass tags = %v, want %v", f.masses, wantMass)
	}
	for i, tag := range wantMass {
		if f.masses[i] != tag {
			t.Fatalf("mass tags = %v, want %v", f.masses, wantMass)
		}
	}
	seen := map[string]bool{}
	for _, a := range f.applies {
		if seen[a.Tag] {
			t.Fatalf("apply tag %q reused across operations", a.Tag)
		}
		seen[a.Tag] = true
		if !a.Rescore {
			t.Fatalf("refine apply %q did not request a rescore", a.Tag)
		}
	}
	if len(seen) != 3 {
		t.Fatalf("saw %d refine applies, want 3", len(seen))
	}
}

// splitClaims builds c claims whose objects alternate between the
// partitions of a two-node cluster, so every chunk reaches both.
func splitClaims(c int) []stream.Triple {
	var objs [2][]string
	for i := 0; len(objs[0]) < c || len(objs[1]) < c; i++ {
		o := fmt.Sprintf("obj-%d", i)
		j := stream.ShardIndex(o, 2)
		objs[j] = append(objs[j], o)
	}
	out := make([]stream.Triple, c)
	for i := range out {
		out[i] = stream.Triple{
			Source: fmt.Sprintf("s%d", i%5),
			Object: objs[i%2][i/2],
			Value:  fmt.Sprintf("v%d", i%3),
		}
	}
	return out
}

// rendezvous holds every request until n of them are in flight at
// once, then releases them together; a request still alone after the
// timeout is refused.
type rendezvous struct {
	n       int
	mu      sync.Mutex
	waiting int
	release chan struct{}
}

func newRendezvous(n int) *rendezvous {
	return &rendezvous{n: n, release: make(chan struct{})}
}

// wait reports whether all n requests met within the timeout.
func (rv *rendezvous) wait(timeout time.Duration) bool {
	rv.mu.Lock()
	ch := rv.release
	if rv.waiting++; rv.waiting == rv.n {
		close(ch)
		rv.waiting = 0
		rv.release = make(chan struct{})
	}
	rv.mu.Unlock()
	select {
	case <-ch:
		return true
	case <-time.After(timeout):
		return false
	}
}

// TestRouterFanOutConcurrent: the router posts an ingest chunk, a
// drain and an apply to every member at once. Each member holds such
// a request until the other member's has arrived too, and refuses it
// with 500 after 5 s, so a router that waits for one member before
// posting to the next fails here.
func TestRouterFanOutConcurrent(t *testing.T) {
	kinds := map[string]*rendezvous{
		"/v1/observe":     newRendezvous(2),
		"/v1/epoch/drain": newRendezvous(2),
		"/v1/epoch/apply": newRendezvous(2),
	}
	hold := func(_ int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			if rv := kinds[req.URL.Path]; rv != nil && !rv.wait(5*time.Second) {
				http.Error(w, "the other member's request never arrived", http.StatusInternalServerError)
				return
			}
			h.ServeHTTP(w, req)
		})
	}
	r, fakes := wrappedCluster(t, 2, hold, func(c *Config) {
		c.Retry = resilience.ClientConfig{MaxAttempts: 1}
	})
	res, err := r.Ingest(context.Background(), splitClaims(16), "seq-par")
	if err != nil {
		t.Fatal(err)
	}
	if res.Ingested != 16 || res.Barriers != 2 {
		t.Fatalf("ingest: %+v", res)
	}
	for i, f := range fakes {
		if f.claims != 8 || len(f.drains) != 2 || len(f.applies) != 2 {
			t.Fatalf("node %d: %d claims, %d drains, %d applies; want 8, 2, 2", i, f.claims, len(f.drains), len(f.applies))
		}
	}
}

// TestRouterFanOutLowestPartitionError: when several members fail, the
// error names the lowest-numbered failing partition however the
// answers race; and a request retried under its seq after a partial
// fan-out lands every claim exactly once without an extra barrier.
func TestRouterFanOutLowestPartitionError(t *testing.T) {
	slow := func(i int, h http.Handler) http.Handler {
		if i != 0 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			time.Sleep(20 * time.Millisecond)
			h.ServeHTTP(w, req)
		})
	}
	r, fakes := wrappedCluster(t, 2, slow, func(c *Config) {
		c.Retry = resilience.ClientConfig{MaxAttempts: 1}
	})
	claims := splitClaims(4)
	for run := 0; run < 20; run++ {
		for _, f := range fakes {
			f.mu.Lock()
			f.failObs = 1
			f.mu.Unlock()
		}
		_, err := r.Ingest(context.Background(), claims, fmt.Sprintf("seq-%d", run))
		if err == nil || !strings.Contains(err.Error(), "partition 0:") {
			t.Fatalf("run %d: error %v, want partition 0's", run, err)
		}
	}

	// Partition 1 fails its third chunk, after the first barrier; the
	// retry under the same seq must resume there.
	var observes atomic.Int32
	failThird := func(i int, h http.Handler) http.Handler {
		if i != 1 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			if req.URL.Path == "/v1/observe" && observes.Add(1) == 3 {
				http.Error(w, "induced failure", http.StatusInternalServerError)
				return
			}
			h.ServeHTTP(w, req)
		})
	}
	r, fakes = wrappedCluster(t, 2, failThird, func(c *Config) {
		c.Retry = resilience.ClientConfig{MaxAttempts: 1}
	})
	claims = splitClaims(16) // batch 4, epoch 8 -> 4 chunks, 2 barriers
	if _, err := r.Ingest(context.Background(), claims, "seq-retry"); err == nil || !strings.Contains(err.Error(), "partition 1:") {
		t.Fatalf("first attempt: error %v, want partition 1's", err)
	}
	res, err := r.Ingest(context.Background(), claims, "seq-retry")
	if err != nil {
		t.Fatal(err)
	}
	if res.Claims != 16 || res.Barriers != 2 {
		t.Fatalf("retried ingest: %+v", res)
	}
	for i, f := range fakes {
		if f.claims != 8 {
			t.Fatalf("node %d holds %d claims, want 8", i, f.claims)
		}
		if strings.Join(f.drains, ",") != "e1,e2" {
			t.Fatalf("node %d drained %v, want [e1 e2]", i, f.drains)
		}
		if len(f.applies) != 2 {
			t.Fatalf("node %d applied %d times, want 2", i, len(f.applies))
		}
	}
}
