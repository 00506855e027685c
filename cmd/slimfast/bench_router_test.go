package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"slimfast/internal/cluster"
	"slimfast/internal/resilience"
	"slimfast/internal/stream"
)

// BenchmarkRouterIngest is the router fan-out layer on its own: one op
// is one 64-claim NDJSON POST /v1/observe into a cluster.Router (its
// HTTP handler called in process) in front of two -external-epochs
// members served over loopback HTTP. The router splits each request by
// partition and forwards it, and every 1024 claims it runs an epoch
// barrier: it drains both members, folds 400 sources and pushes the
// accuracy table back. Allocations count the router and both members.
func BenchmarkRouterIngest(b *testing.B) { benchRouterIngest(b, 0) }

// BenchmarkRouterIngestSlowMembers is BenchmarkRouterIngest with each
// member behind a handler that sleeps 200 µs before it serves a
// request, standing in for a member on another host. The router's
// fan-out shows its cost here even where router and members share a
// few cores: posting to both members at once waits one delay per
// fan-out, not one per member.
func BenchmarkRouterIngestSlowMembers(b *testing.B) { benchRouterIngest(b, 200*time.Microsecond) }

// benchRouterIngest runs the router ingest benchmark with every member
// request delayed by delay (0 serves the members directly).
func benchRouterIngest(b *testing.B, delay time.Duration) {
	const nodes, batch, epoch = 2, 1024, 1024
	urls := make([]string, nodes)
	for i := range urls {
		opts := stream.DefaultEngineOptions()
		opts.Shards = 1
		opts.Workers = 1
		opts.EpochLength = stream.ExternalEpochLength
		eng, err := stream.NewEngine(opts)
		if err != nil {
			b.Fatal(err)
		}
		h := newStreamServer(eng, serveConfig{Batch: batch}, io.Discard).handler()
		if delay > 0 {
			inner := h
			h = http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
				time.Sleep(delay)
				inner.ServeHTTP(w, req)
			})
		}
		srv := httptest.NewServer(h)
		b.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	tr := &http.Transport{MaxIdleConnsPerHost: 4}
	b.Cleanup(tr.CloseIdleConnections)
	rt, err := cluster.New(cluster.Config{
		Nodes:       urls,
		Batch:       batch,
		EpochLength: epoch,
		HTTP:        &http.Client{Transport: tr},
		Retry:       resilience.ClientConfig{MaxAttempts: 3},
	})
	if err != nil {
		b.Fatal(err)
	}
	h := newRouterServer(rt, io.Discard, nil, "text").handler()

	var bodies []string
	for pass := 0; pass < 2; pass++ {
		for _, body := range ndjsonBodies(benchCorpus(400, 2048, 8, pass), 64) {
			bodies = append(bodies, string(body))
		}
	}
	post := func(i int) {
		req := httptest.NewRequest(http.MethodPost, "/v1/observe?seq=r"+strconv.Itoa(i), strings.NewReader(bodies[i%len(bodies)]))
		req.Header.Set("Content-Type", "application/x-ndjson")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("observe: %d %s", rec.Code, rec.Body)
		}
	}
	// Warm up: intern every source and object and open the connections.
	for i := range bodies {
		post(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post(len(bodies) + i)
	}
}
