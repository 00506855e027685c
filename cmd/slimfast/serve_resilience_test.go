package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"slimfast/internal/resilience"
	"slimfast/internal/stream"
)

// TestServeAdmissionShedding: a body bigger than the in-flight byte
// budget is shed with 429 + Retry-After before ingest, and a full
// request-slot budget sheds the same way.
func TestServeAdmissionShedding(t *testing.T) {
	srv := newStreamServer(testEngine(t, 2), serveConfig{Batch: 32, MaxInflightBytes: 64}, io.Discard)
	h := srv.handler()

	big := streamCSV(40) // way past 64 bytes
	rec := doReq(t, h, "POST", "/v1/observe", "text/csv", big)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("oversized observe = %d, want 429: %s", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if _, _, shed := srv.gate.Pressure(); shed != 1 {
		t.Errorf("shed counter = %d, want 1", shed)
	}
	// A body inside the budget is admitted.
	if rec := doReq(t, h, "POST", "/v1/observe", "text/csv", "s,o,v\n"); rec.Code != http.StatusOK {
		t.Errorf("small observe = %d: %s", rec.Code, rec.Body)
	}

	// Saturate the request-slot budget and watch /observe shed.
	slot := newStreamServer(testEngine(t, 2), serveConfig{Batch: 32, MaxInflightReqs: 1}, io.Discard)
	release, err := slot.gate.Acquire(0)
	if err != nil {
		t.Fatal(err)
	}
	if rec := doReq(t, slot.handler(), "POST", "/v1/observe", "text/csv", "s,o,v\n"); rec.Code != http.StatusTooManyRequests {
		t.Errorf("saturated observe = %d, want 429", rec.Code)
	}
	release()
	if rec := doReq(t, slot.handler(), "POST", "/v1/observe", "text/csv", "s,o,v\n"); rec.Code != http.StatusOK {
		t.Errorf("post-release observe = %d: %s", rec.Code, rec.Body)
	}
}

// TestServeReadyz: ready with headroom, 503 + Retry-After when the
// gate is saturated, ready again once pressure drains. /healthz stays
// 200 throughout — it reports liveness, not pressure.
func TestServeReadyz(t *testing.T) {
	srv := newStreamServer(testEngine(t, 2), serveConfig{Batch: 32, MaxInflightReqs: 2}, io.Discard)
	h := srv.handler()

	rec := doReq(t, h, "GET", "/v1/readyz", "", "")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"ready"`) {
		t.Fatalf("idle readyz = %d: %s", rec.Code, rec.Body)
	}
	r1, _ := srv.gate.Acquire(10)
	r2, _ := srv.gate.Acquire(10)
	rec = doReq(t, h, "GET", "/v1/readyz", "", "")
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), `"overloaded"`) {
		t.Errorf("saturated readyz = %d: %s", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("overloaded readyz without Retry-After")
	}
	if rec := doReq(t, h, "GET", "/v1/healthz", "", ""); rec.Code != http.StatusOK {
		t.Errorf("healthz under pressure = %d, want 200 (liveness only)", rec.Code)
	}
	r1()
	r2()
	if rec := doReq(t, h, "GET", "/v1/readyz", "", ""); rec.Code != http.StatusOK {
		t.Errorf("drained readyz = %d: %s", rec.Code, rec.Body)
	}
}

// TestServeIdempotentObserve is the serving-layer golden idempotency
// proof: a client retry storm — every batch delivered several times
// with its X-Batch-Seq key — must leave the engine byte-identical to
// one clean delivery of each batch.
func TestServeIdempotentObserve(t *testing.T) {
	all := strings.Split(strings.TrimSpace(ndjsonFromCSV(streamCSV(200))), "\n")
	const chunks = 5
	per := len(all) / chunks
	bodies := make([]string, chunks)
	for i := range bodies {
		lo, hi := i*per, (i+1)*per
		if i == chunks-1 {
			hi = len(all)
		}
		bodies[i] = strings.Join(all[lo:hi], "\n") + "\n"
	}

	once := testServer(testEngine(t, 2), "", 32)
	storm := testServer(testEngine(t, 2), "", 32)
	hOnce, hStorm := once.handler(), storm.handler()
	for i, body := range bodies {
		seq := fmt.Sprintf("batch-%d", i)
		req := func(h http.Handler) *httptest.ResponseRecorder {
			r := httptest.NewRequest("POST", "/v1/observe", strings.NewReader(body))
			r.Header.Set(resilience.SeqHeader, seq)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			return rec
		}
		if rec := req(hOnce); rec.Code != http.StatusOK {
			t.Fatalf("clean delivery %d = %d: %s", i, rec.Code, rec.Body)
		}
		// The storm: 1 + (i%3 + 1) deliveries of the same batch.
		for k := 0; k <= i%3+1; k++ {
			rec := req(hStorm)
			if rec.Code != http.StatusOK {
				t.Fatalf("storm delivery %d/%d = %d: %s", i, k, rec.Code, rec.Body)
			}
			var ack struct {
				Deduped  bool  `json:"deduped"`
				Ingested int64 `json:"ingested"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil {
				t.Fatal(err)
			}
			if k == 0 && (ack.Deduped || ack.Ingested == 0) {
				t.Errorf("first delivery %d reported deduped=%v ingested=%d", i, ack.Deduped, ack.Ingested)
			}
			if k > 0 && (!ack.Deduped || ack.Ingested != 0) {
				t.Errorf("retry %d/%d not deduplicated: %s", i, k, rec.Body)
			}
		}
	}
	wantEst := doReq(t, hOnce, "GET", "/v1/estimates", "", "").Body.String()
	gotEst := doReq(t, hStorm, "GET", "/v1/estimates", "", "").Body.String()
	if gotEst != wantEst {
		t.Error("retry storm /estimates diverge from single delivery")
	}
	if a, b := once.eng.Stats(), storm.eng.Stats(); a != b {
		t.Errorf("stats diverged: %+v vs %+v", a, b)
	}

	// The ?seq= query form works for header-less clients.
	if rec := doReq(t, hStorm, "POST", "/v1/observe?seq=batch-0", "", bodies[0]); rec.Code != http.StatusOK ||
		!strings.Contains(rec.Body.String(), `"deduped":true`) {
		t.Errorf("?seq= replay = %d: %s", rec.Code, rec.Body)
	}
}

// TestServeDedupSurvivesRestart: the dedup window rides inside the
// checkpoint, so a retry that lands after a crash+restore is still
// deduplicated — exactly-once across process lives.
func TestServeDedupSurvivesRestart(t *testing.T) {
	ckpt := t.TempDir() + "/dedup.ckpt"
	srv := testServer(testEngine(t, 2), ckpt, 32)
	h := srv.handler()
	body := ndjsonFromCSV(streamCSV(30))
	req := httptest.NewRequest("POST", "/v1/observe", strings.NewReader(body))
	req.Header.Set(resilience.SeqHeader, "once-upon-a-batch")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("observe = %d: %s", rec.Code, rec.Body)
	}
	if rec := doReq(t, h, "POST", "/v1/checkpoint", "", ""); rec.Code != http.StatusOK {
		t.Fatalf("checkpoint = %d: %s", rec.Code, rec.Body)
	}
	restored, err := stream.RestoreFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	wantObs := restored.Stats().Observations
	h2 := testServer(restored, ckpt, 32).handler()
	req = httptest.NewRequest("POST", "/v1/observe", strings.NewReader(body))
	req.Header.Set(resilience.SeqHeader, "once-upon-a-batch")
	rec = httptest.NewRecorder()
	h2.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"deduped":true`) {
		t.Fatalf("post-restart replay = %d: %s", rec.Code, rec.Body)
	}
	if got := restored.Stats().Observations; got != wantObs {
		t.Errorf("replay after restart re-ingested: %d -> %d observations", wantObs, got)
	}
}

// TestServeFeaturesEndpoint: /features exposes the learner's model as
// CSV on online engines and 409s on agreement-only ones.
func TestServeFeaturesEndpoint(t *testing.T) {
	h := testServer(featureEngine(t, 2), "", 64).handler()
	if rec := doReq(t, h, "POST", "/v1/observe", "text/csv", streamCSV(150)); rec.Code != http.StatusOK {
		t.Fatalf("observe = %d: %s", rec.Code, rec.Body)
	}
	rec := doReq(t, h, "GET", "/v1/features", "", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("features = %d: %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/csv" {
		t.Errorf("features content type = %q", ct)
	}
	body := rec.Body.String()
	if !strings.HasPrefix(body, "feature,weight\n") {
		t.Errorf("features header:\n%s", body)
	}
	for _, want := range []string{"(intercept),", "tier=reviewed,", "tier=scraped,"} {
		if !strings.Contains(body, want) {
			t.Errorf("features missing %q:\n%s", want, body)
		}
	}
	// The learner separates the tiers; their weights must differ.
	var reviewed, scraped float64
	for _, line := range strings.Split(body, "\n") {
		fmt.Sscanf(line, "tier=reviewed,%f", &reviewed)
		fmt.Sscanf(line, "tier=scraped,%f", &scraped)
	}
	if reviewed <= scraped {
		t.Errorf("reviewed weight %.4f should exceed scraped %.4f", reviewed, scraped)
	}

	if rec := doReq(t, h, "POST", "/v1/features", "", ""); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/features = %d, want 405", rec.Code)
	}
	plain := testServer(testEngine(t, 2), "", 32).handler()
	if rec := doReq(t, plain, "GET", "/v1/features", "", ""); rec.Code != http.StatusConflict {
		t.Errorf("features without learner = %d, want 409", rec.Code)
	}
}

// TestServePanicRecovery: a handler panic becomes a logged 500 JSON
// error instead of killing the connection silently.
func TestServePanicRecovery(t *testing.T) {
	var log bytes.Buffer
	srv := newStreamServer(testEngine(t, 1), serveConfig{Batch: 1}, &log)
	h := srv.ins.middleware(srv.ins.route("/anything", func(http.ResponseWriter, *http.Request) {
		panic("poisoned request")
	}))
	rec := doReq(t, h, "GET", "/anything", "", "")
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler = %d, want 500", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "internal error") {
		t.Errorf("500 body: %s", rec.Body)
	}
	if !strings.Contains(log.String(), "PANIC") || !strings.Contains(log.String(), "poisoned request") {
		t.Errorf("panic not logged:\n%s", log.String())
	}
	if !strings.Contains(log.String(), "goroutine") {
		t.Errorf("panic log missing the stack:\n%s", log.String())
	}
}

// TestServeLockTimeout: with -request-timeout set, a request that
// cannot take the ingest lock in time sheds with 503 + Retry-After
// instead of queueing forever behind a wedged peer.
func TestServeLockTimeout(t *testing.T) {
	srv := newStreamServer(testEngine(t, 1), serveConfig{Batch: 8, RequestTimeout: 50 * time.Millisecond}, io.Discard)
	h := srv.handler()
	srv.lock <- struct{}{} // wedge the ingest lock
	defer func() { <-srv.lock }()

	start := time.Now()
	rec := doReq(t, h, "POST", "/v1/observe", "text/csv", "s,o,v\n")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("lock-starved observe = %d, want 503: %s", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("shedding took %v, deadline did not bite", took)
	}
	if rec := doReq(t, h, "POST", "/v1/refine", "", ""); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("lock-starved refine = %d, want 503", rec.Code)
	}
	// Queries stay lock-free and keep answering while ingest is wedged.
	if rec := doReq(t, h, "GET", "/v1/estimates", "", ""); rec.Code != http.StatusOK {
		t.Errorf("estimates during wedge = %d", rec.Code)
	}
}

// TestServeBodyReadTimeout drives a real TCP server with a client
// that trickles its body forever: the read deadline must cut the
// request off with 408 instead of letting it hold an admission slot
// indefinitely.
func TestServeBodyReadTimeout(t *testing.T) {
	srv := newStreamServer(testEngine(t, 1), serveConfig{Batch: 8, RequestTimeout: 150 * time.Millisecond}, io.Discard)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	pr, pw := io.Pipe()
	defer pw.Close()
	go func() {
		pw.Write([]byte("s,o,v\n")) // a taste, then silence
	}()
	req, err := http.NewRequest("POST", ts.URL+"/v1/observe", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/csv")
	done := make(chan struct{})
	var code int
	var rerr error
	go func() {
		defer close(done)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			rerr = err
			return
		}
		code = resp.StatusCode
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("trickling request was never cut off")
	}
	// The deadline either produces a clean 408 or snaps the connection
	// mid-upload (the client then sees a transport error); both prove
	// the slot was reclaimed.
	if rerr == nil && code != http.StatusRequestTimeout {
		t.Errorf("trickling request = %d, want 408 or a snapped connection", code)
	}
}

// TestServePeriodicCheckpoint: -checkpoint-every writes generations in
// the background without any operator request.
func TestServePeriodicCheckpoint(t *testing.T) {
	dir := t.TempDir()
	store := stream.NewCheckpointStore(dir+"/auto.ckpt", 2)
	eng := testEngine(t, 2)
	eng.Observe("s", "o", "v")
	var log syncBuffer
	srv := newStreamServer(eng, serveConfig{Batch: 8, Store: store, CheckpointEvery: 20 * time.Millisecond}, &log)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go srv.checkpointLoop(ctx, srv.cfg.CheckpointEvery)

	deadline := time.Now().Add(5 * time.Second)
	for {
		if strings.Contains(log.String(), "# periodic checkpoint written to ") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no periodic checkpoint after 5s; log:\n%s", log.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, _, err := store.Restore(); err != nil {
		t.Fatalf("periodic generation unreadable: %v", err)
	}
}
