package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"slimfast/internal/cluster"
	"slimfast/internal/resilience"
	"slimfast/internal/stream"
)

// goldenClaims builds a deterministic workload with real disagreement:
// eight sources over 120 objects, where source s7 is a contrarian and
// every (o+s)%11 claim dissents, so accuracies move at every epoch.
func goldenClaims() []stream.Triple {
	var out []stream.Triple
	for o := 0; o < 120; o++ {
		obj := fmt.Sprintf("obj%03d", o)
		for s := 0; s < 8; s++ {
			val := fmt.Sprintf("t%d", o%7)
			if s == 7 || (o+s)%11 == 0 {
				val = fmt.Sprintf("w%d", (o+s)%5)
			}
			out = append(out, stream.Triple{Source: fmt.Sprintf("s%d", s), Object: obj, Value: val})
		}
	}
	return out
}

func ndjsonFromTriples(claims []stream.Triple) string {
	var sb strings.Builder
	for _, tr := range claims {
		fmt.Fprintf(&sb, "{\"source\":%q,\"object\":%q,\"value\":%q}\n", tr.Source, tr.Object, tr.Value)
	}
	return sb.String()
}

// newMember starts one single-shard externally-coordinated member
// engine with evidence decay decay behind a real node handler,
// checkpointing to ckpt when set.
func newMember(t *testing.T, batch int, decay float64, ckpt string) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(memberHandler(t, batch, decay, ckpt))
	t.Cleanup(srv.Close)
	return srv
}

// memberHandler is newMember's node handler, for tests that wrap it.
func memberHandler(t *testing.T, batch int, decay float64, ckpt string) http.Handler {
	t.Helper()
	opts := stream.DefaultEngineOptions()
	opts.Shards = 1
	opts.EpochLength = stream.ExternalEpochLength
	opts.Decay = decay
	eng, err := stream.NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	return testServer(eng, ckpt, batch).handler()
}

// newGoldenCluster starts nodes members plus a router over them,
// mirroring the reference geometry: one member per reference shard,
// all with evidence decay decay.
func newGoldenCluster(t *testing.T, nodes, batch, epochLen int, decay float64) *routerServer {
	t.Helper()
	urls := make([]string, nodes)
	for i := range urls {
		urls[i] = newMember(t, batch, decay, "").URL
	}
	return newGoldenClusterOver(t, urls, batch, epochLen, decay)
}

// newGoldenClusterOver builds a router with evidence decay decay over
// already-running member URLs.
func newGoldenClusterOver(t testing.TB, urls []string, batch, epochLen int, decay float64) *routerServer {
	t.Helper()
	opts := stream.DefaultOptions()
	opts.Decay = decay
	rt, err := cluster.New(cluster.Config{
		Nodes:       urls,
		Batch:       batch,
		EpochLength: epochLen,
		Opts:        opts,
		Retry:       resilience.ClientConfig{MaxAttempts: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	return newRouterServer(rt, io.Discard, nil, "text")
}

// TestRouterGoldenEquivalence is the tentpole's proof at the HTTP
// layer: a three-node cluster driven entirely through the router's
// public surface produces byte-identical /estimates and /sources to a
// single three-shard engine fed the same claim stream in the same
// chunks — after ingest with epoch barriers, and again after a
// cluster-wide refine. It runs without decay and with decay < 1, which
// drives the router's barrier through the decaying branch of the fold
// it shares with the engine's epoch refresh.
func TestRouterGoldenEquivalence(t *testing.T) {
	for _, decay := range []float64{1, 0.97} {
		t.Run(fmt.Sprintf("decay=%v", decay), func(t *testing.T) {
			const nodes, batch, epochLen = 3, 32, 64
			claims := goldenClaims()

			refOpts := stream.DefaultEngineOptions()
			refOpts.Shards = nodes
			refOpts.EpochLength = epochLen
			refOpts.Decay = decay
			ref, err := stream.NewEngine(refOpts)
			if err != nil {
				t.Fatal(err)
			}
			for lo := 0; lo < len(claims); lo += batch {
				hi := min(lo+batch, len(claims))
				ref.ObserveBatch(claims[lo:hi])
			}

			rs := newGoldenCluster(t, nodes, batch, epochLen, decay)
			rec := doReq(t, rs.handler(), http.MethodPost, "/v1/observe?seq=golden", "application/x-ndjson", ndjsonFromTriples(claims))
			if rec.Code != http.StatusOK {
				t.Fatalf("observe: %d %s", rec.Code, rec.Body)
			}

			wantEst := refQueryBytes(t, ref, "", "csv")
			wantSrc := legacySourcesCSV(ref)

			gotEst := doReq(t, rs.handler(), http.MethodGet, "/v1/estimates", "", "")
			if gotEst.Code != http.StatusOK || gotEst.Body.String() != wantEst {
				t.Fatalf("cluster /estimates diverged from the single engine\ncluster:\n%s\nreference:\n%s", gotEst.Body, wantEst)
			}
			gotSrc := doReq(t, rs.handler(), http.MethodGet, "/v1/sources", "", "")
			if gotSrc.Code != http.StatusOK || gotSrc.Body.String() != wantSrc {
				t.Fatalf("cluster /sources diverged from the single engine\ncluster:\n%s\nreference:\n%s", gotSrc.Body, wantSrc)
			}

			// The distributed refine must land on the same fixed point.
			ref.Refine(2)
			if rec := doReq(t, rs.handler(), http.MethodPost, "/v1/refine?sweeps=2", "", ""); rec.Code != http.StatusOK {
				t.Fatalf("refine: %d %s", rec.Code, rec.Body)
			}
			wantEst = refQueryBytes(t, ref, "", "csv")
			wantSrc = legacySourcesCSV(ref)
			if got := doReq(t, rs.handler(), http.MethodGet, "/v1/estimates", "", ""); got.Body.String() != wantEst {
				t.Fatalf("post-refine /estimates diverged\ncluster:\n%s\nreference:\n%s", got.Body, wantEst)
			}
			if got := doReq(t, rs.handler(), http.MethodGet, "/v1/sources", "", ""); got.Body.String() != wantSrc {
				t.Fatalf("post-refine /sources diverged\ncluster:\n%s\nreference:\n%s", got.Body, wantSrc)
			}

			// A full re-delivery of the same request must change nothing: the
			// router re-forwards every chunk (node dedup absorbs them) and the
			// cluster bytes stay put.
			if rec := doReq(t, rs.handler(), http.MethodPost, "/v1/observe?seq=golden", "application/x-ndjson", ndjsonFromTriples(claims)); rec.Code != http.StatusOK {
				t.Fatalf("re-observe: %d %s", rec.Code, rec.Body)
			}
			if got := doReq(t, rs.handler(), http.MethodGet, "/v1/estimates", "", ""); got.Body.String() != wantEst {
				t.Fatal("re-delivered request changed the cluster estimates")
			}
		})
	}
}

// TestRouterGoldenManifestBytes pins the manifest that
// TestRouterGoldenEquivalence's cluster (three members, batch 32,
// epoch 64, no decay) writes after the same observe and refine:
// counters, the barrier position, the folded evidence, the dedup
// window and the options block. Member addresses are random ports, so
// each is replaced by memberN before the comparison.
func TestRouterGoldenManifestBytes(t *testing.T) {
	const nodes, batch, epochLen = 3, 32, 64
	urls := make([]string, nodes)
	for i := range urls {
		urls[i] = newMember(t, batch, 1, "").URL
	}
	path := filepath.Join(t.TempDir(), "cluster.json")
	rt, err := cluster.New(cluster.Config{
		Nodes:        urls,
		Batch:        batch,
		EpochLength:  epochLen,
		Opts:         stream.DefaultOptions(),
		ManifestPath: path,
		Retry:        resilience.ClientConfig{MaxAttempts: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := newRouterServer(rt, io.Discard, nil, "text").handler()
	if rec := doReq(t, h, http.MethodPost, "/v1/observe?seq=golden", "application/x-ndjson", ndjsonFromTriples(goldenClaims())); rec.Code != http.StatusOK {
		t.Fatalf("observe: %d %s", rec.Code, rec.Body)
	}
	if rec := doReq(t, h, http.MethodPost, "/v1/refine?sweeps=2", "", ""); rec.Code != http.StatusOK {
		t.Fatalf("refine: %d %s", rec.Code, rec.Body)
	}
	if err := rt.WriteManifest(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range urls {
		got = bytes.ReplaceAll(got, []byte(u), []byte(fmt.Sprintf("member%d", i)))
	}
	golden := filepath.Join("testdata", "router_manifest.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("manifest differs from %s\ngot:\n%s", golden, got)
	}
}

// TestRouterHTTPSurface covers the router's error contract: bad rows
// reject atomically, refine validates sweeps, health endpoints answer.
func TestRouterHTTPSurface(t *testing.T) {
	rs := newGoldenCluster(t, 2, 8, 16, 1)
	h := rs.handler()

	if rec := doReq(t, h, http.MethodPost, "/v1/observe", "application/x-ndjson", `{"source":"","object":"o","value":"v"}`+"\n"); rec.Code != http.StatusBadRequest {
		t.Fatalf("empty source accepted: %d %s", rec.Code, rec.Body)
	}
	if rec := doReq(t, h, http.MethodPost, "/v1/refine?sweeps=0", "", ""); rec.Code != http.StatusBadRequest {
		t.Fatalf("sweeps=0 accepted: %d", rec.Code)
	}
	if rec := doReq(t, h, http.MethodPost, "/v1/observe", "text/csv", "source,object,value\na,o1,v\nb,o2,v\n"); rec.Code != http.StatusOK {
		t.Fatalf("csv observe: %d %s", rec.Code, rec.Body)
	}
	if rec := doReq(t, h, http.MethodGet, "/v1/healthz", "", ""); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"status":"ok"`) {
		t.Fatalf("healthz: %d %s", rec.Code, rec.Body)
	}
	if rec := doReq(t, h, http.MethodGet, "/v1/readyz", "", ""); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"status":"ready"`) {
		t.Fatalf("readyz: %d %s", rec.Code, rec.Body)
	}
}

// TestRouterRefusesMemberRefine: a member running -external-epochs
// must 409 a direct /refine — only the router may move the cluster's
// σ-table.
func TestRouterRefusesMemberRefine(t *testing.T) {
	opts := stream.DefaultEngineOptions()
	opts.Shards = 1
	opts.EpochLength = stream.ExternalEpochLength
	eng, err := stream.NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	h := testServer(eng, "", 8).handler()
	if rec := doReq(t, h, http.MethodPost, "/v1/refine", "", ""); rec.Code != http.StatusConflict {
		t.Fatalf("member refine: %d, want 409", rec.Code)
	}
}

// TestRouterPlainReadsPropagateRequestID: the plain /v1/estimates and
// /v1/sources scatter-gathers run under the client's request context,
// so every member request carries the client's X-Request-ID.
func TestRouterPlainReadsPropagateRequestID(t *testing.T) {
	opts := stream.DefaultEngineOptions()
	opts.Shards = 1
	opts.EpochLength = stream.ExternalEpochLength
	eng, err := stream.NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	node := testServer(eng, "", 8).handler()
	var mu sync.Mutex
	seen := map[string][]string{}
	member := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen[r.URL.Path] = append(seen[r.URL.Path], r.Header.Get(resilience.RequestIDHeader))
		mu.Unlock()
		node.ServeHTTP(w, r)
	}))
	t.Cleanup(member.Close)
	h := newGoldenClusterOver(t, []string{member.URL}, 8, 16, 1).handler()
	if rec := doReq(t, h, http.MethodPost, "/v1/observe", "application/x-ndjson", ndjsonFromTriples(goldenClaims()[:8])); rec.Code != http.StatusOK {
		t.Fatalf("observe: %d %s", rec.Code, rec.Body)
	}
	for _, path := range []string{"/v1/estimates", "/v1/sources"} {
		id := "trace" + strings.ReplaceAll(path, "/", "-")
		req, rec := newTaggedRequest(http.MethodGet, path, "", id)
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: %d %s", path, rec.Code, rec.Body)
		}
		mu.Lock()
		got := seen[path]
		mu.Unlock()
		if len(got) == 0 || got[len(got)-1] != id {
			t.Errorf("member saw X-Request-ID %q on %s, want %q", got, path, id)
		}
	}
}

// TestRouterCheckpoint: POST /v1/checkpoint through the router writes a
// generation on every member and then the router manifest, from which
// a restarted router resumes its counters.
func TestRouterCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ckpts := []string{filepath.Join(dir, "m0.ckpt"), filepath.Join(dir, "m1.ckpt")}
	urls := []string{newMember(t, 8, 1, ckpts[0]).URL, newMember(t, 8, 1, ckpts[1]).URL}
	manifest := filepath.Join(dir, "router.manifest")
	cfg := cluster.Config{Nodes: urls, Batch: 8, EpochLength: 16, ManifestPath: manifest, Retry: resilience.ClientConfig{MaxAttempts: 3}}
	rt, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := newRouterServer(rt, io.Discard, nil, "text").handler()
	claims := goldenClaims()[:64]
	if rec := doReq(t, h, http.MethodPost, "/v1/observe?seq=ck", "application/x-ndjson", ndjsonFromTriples(claims)); rec.Code != http.StatusOK {
		t.Fatalf("observe: %d %s", rec.Code, rec.Body)
	}
	for _, p := range append(ckpts, manifest) {
		if _, err := os.Stat(p); err == nil {
			t.Fatalf("%s written before the checkpoint request", p)
		}
	}
	rec := doReq(t, h, http.MethodPost, "/v1/checkpoint", "", "")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"claims":64`) {
		t.Fatalf("checkpoint: %d %s", rec.Code, rec.Body)
	}
	var observations int64
	for _, p := range ckpts {
		eng, err := stream.RestoreFile(p)
		if err != nil {
			t.Fatalf("member generation %s: %v", p, err)
		}
		observations += eng.Stats().Observations
	}
	if observations != int64(len(claims)) {
		t.Errorf("member checkpoints hold %d observations, want %d", observations, len(claims))
	}
	restarted, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st := restarted.Stats(); st.Claims != int64(len(claims)) || st.Barriers != rt.Stats().Barriers {
		t.Errorf("manifest restored %+v, want claims=%d barriers=%d", st, len(claims), rt.Stats().Barriers)
	}
}

// TestRouterReadyzDegrades: readiness names the dark partitions while
// any member still answers, and sheds with 503 + Retry-After and the
// envelope once none does.
func TestRouterReadyzDegrades(t *testing.T) {
	m0, m1 := newMember(t, 8, 1, ""), newMember(t, 8, 1, "")
	h := newGoldenClusterOver(t, []string{m0.URL, m1.URL}, 8, 16, 1).handler()
	var ready struct {
		Status string `json:"status"`
		Down   []int  `json:"down_partitions"`
	}
	m1.Close()
	rec := doReq(t, h, http.MethodGet, "/v1/readyz", "", "")
	if err := json.Unmarshal(rec.Body.Bytes(), &ready); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusOK || ready.Status != "degraded" || len(ready.Down) != 1 || ready.Down[0] != 1 {
		t.Errorf("one member dark: readyz = %d %s, want 200 degraded with down_partitions [1]", rec.Code, rec.Body)
	}
	m0.Close()
	rec = doReq(t, h, http.MethodGet, "/v1/readyz", "", "")
	if rec.Code != http.StatusServiceUnavailable || decodeEnvelope(t, rec) != "shed" {
		t.Errorf("every member dark: readyz = %d %s, want 503 shed", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("unavailable readyz without Retry-After")
	}
	if !strings.Contains(rec.Body.String(), `"status":"unavailable"`) {
		t.Errorf("unavailable readyz body: %s", rec.Body)
	}
}

// TestMemberEpochRepliesTakeFastPath: the drain and mass replies of a
// real -external-epochs member are the bytes encoding/json writes for
// them, and the router's stream.CutEpochReply reads them without
// falling back to encoding/json; a retry under the same tag replays
// the same bytes. The router's own request bodies take the member's
// CutEpochRequest fast path. (The fake nodes in internal/cluster answer
// tag first, which keeps the router's fallback covered.)
func TestMemberEpochRepliesTakeFastPath(t *testing.T) {
	h := testServer(epochMember(t), "", 32).handler()
	for _, path := range []string{"/v1/epoch/drain", "/v1/epoch/mass"} {
		req, err := stream.AppendEpochRequest(nil, stream.EpochRequest{Tag: "e1"})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := stream.CutEpochRequest(req); !ok {
			t.Fatalf("CutEpochRequest declined the router's %s body %q", path, req)
		}
		rec := doReq(t, h, http.MethodPost, path, "application/json", string(req))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", path, rec.Code, rec.Body)
		}
		reply := rec.Body.Bytes()
		rows, tag, ok := stream.CutEpochReply(reply, nil)
		if !ok {
			t.Fatalf("%s reply %q missed the fast path", path, reply)
		}
		var decoded struct {
			Sources []stream.SourceStat `json:"sources"`
		}
		if err := json.Unmarshal(reply, &decoded); err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(map[string]any{"tag": "e1", "sources": decoded.Sources}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(reply, want.Bytes()) {
			t.Fatalf("%s reply\n got %q\nwant %q", path, reply, want.Bytes())
		}
		if tag != "e1" || len(rows) != 8 || len(decoded.Sources) != 8 {
			t.Fatalf("%s: tag %q, %d rows (encoding/json %d), want e1 and 8", path, tag, len(rows), len(decoded.Sources))
		}
		if again := doReq(t, h, http.MethodPost, path, "application/json", string(req)); !bytes.Equal(again.Body.Bytes(), reply) {
			t.Fatalf("%s retry under the same tag answered %q, first %q", path, again.Body, reply)
		}
	}
	apply := stream.EpochRequest{Tag: "e1", Accuracies: []stream.SourceAccuracy{{Source: "s0", Accuracy: 0.8}, {Source: "s1", Accuracy: 1e-7}}, Rescore: true}
	body, err := stream.AppendEpochRequest(nil, apply)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := stream.CutEpochRequest(body); !ok || len(got.Accuracies) != 2 || got.Accuracies[1] != apply.Accuracies[1] || !got.Rescore {
		t.Fatalf("CutEpochRequest(%q) = %+v, %v", body, got, ok)
	}
	if rec := doReq(t, h, http.MethodPost, "/v1/epoch/apply", "application/json", string(body)); rec.Code != http.StatusOK {
		t.Fatalf("apply: %d %s", rec.Code, rec.Body)
	}
}
