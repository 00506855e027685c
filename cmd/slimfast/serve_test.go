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
	"syscall"
	"testing"
	"time"

	"slimfast/internal/stream"
)

// ndjsonFromCSV rewrites the test stream as NDJSON ingest bodies.
func ndjsonFromCSV(csvIn string) string {
	var sb strings.Builder
	lines := strings.Split(strings.TrimSpace(csvIn), "\n")
	for _, line := range lines[1:] { // skip header
		p := strings.SplitN(line, ",", 3)
		fmt.Fprintf(&sb, "{\"source\":%q,\"object\":%q,\"value\":%q}\n", p[0], p[1], p[2])
	}
	return sb.String()
}

func doReq(t *testing.T, h http.Handler, method, path, contentType, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// testServer builds a streamServer the way most tests want one: the
// given batch size, an optional checkpoint store, defaults elsewhere.
func testServer(eng *stream.Engine, ckpt string, batch int) *streamServer {
	var store *stream.CheckpointStore
	if ckpt != "" {
		store = stream.NewCheckpointStore(ckpt, 2)
	}
	return newStreamServer(eng, serveConfig{Batch: batch, Store: store}, io.Discard)
}

// legacySourcesCSV is the source table the CSV surface has always
// served (sorted by source, floats %.4f, the online decomposition
// columns when the engine learns), emitted independently of the query
// writer so the byte compares stay an oracle.
func legacySourcesCSV(eng *stream.Engine) string {
	var sb strings.Builder
	if !eng.OnlineLearning() {
		sb.WriteString("source,accuracy\n")
		for _, s := range eng.Sources() {
			fmt.Fprintf(&sb, "%s,%.4f\n", s, eng.SourceAccuracy(s))
		}
		return sb.String()
	}
	sb.WriteString("source,accuracy,learned,empirical\n")
	for _, s := range eng.Sources() {
		if acc, learned, empirical, ok := eng.SourceAccuracyDetail(s); ok {
			fmt.Fprintf(&sb, "%s,%.4f,%.4f,%.4f\n", s, acc, learned, empirical)
		}
	}
	return sb.String()
}

// TestServeSourcesLegacyBytes: the plain GET /v1/sources, rendered by
// the query writer, reproduces the legacy table byte for byte, with
// and without the online learner.
func TestServeSourcesLegacyBytes(t *testing.T) {
	for name, eng := range map[string]*stream.Engine{"plain": testEngine(t, 2), "online": featureEngine(t, 2)} {
		h := testServer(eng, "", 32).handler()
		if rec := doReq(t, h, "POST", "/v1/observe", "text/csv", streamCSV(150)); rec.Code != http.StatusOK {
			t.Fatalf("%s: observe = %d: %s", name, rec.Code, rec.Body)
		}
		if got, want := doReq(t, h, "GET", "/v1/sources", "", "").Body.String(), legacySourcesCSV(eng); got != want {
			t.Errorf("%s: /v1/sources diverged from the legacy table\ngot:\n%s\nwant:\n%s", name, got, want)
		}
	}
}

func testEngine(t *testing.T, workers int) *stream.Engine {
	t.Helper()
	opts := stream.DefaultEngineOptions()
	opts.Shards = 4
	opts.Workers = workers
	opts.EpochLength = 128
	e, err := stream.NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestServeRestartDeterminism is the serving-layer half of the golden
// restart guarantee: POST part one, checkpoint over HTTP, restart from
// the checkpoint, POST part two — the /estimates and /sources bytes
// must be identical to a server that ingested everything in one life.
// Runs for one and four ingest workers.
func TestServeRestartDeterminism(t *testing.T) {
	all := strings.Split(strings.TrimSpace(ndjsonFromCSV(streamCSV(300))), "\n")
	cut := 5 * len(all) / 9 // not a batch boundary: restart mid-epoch
	part1 := strings.Join(all[:cut], "\n") + "\n"
	part2 := strings.Join(all[cut:], "\n") + "\n"

	for _, workers := range []int{1, 4} {
		// One uninterrupted life.
		hU := testServer(testEngine(t, workers), "", 64).handler()
		for _, body := range []string{part1, part2} {
			if rec := doReq(t, hU, "POST", "/v1/observe", "", body); rec.Code != http.StatusOK {
				t.Fatalf("workers=%d: observe = %d: %s", workers, rec.Code, rec.Body)
			}
		}
		wantEst := doReq(t, hU, "GET", "/v1/estimates", "", "").Body.String()
		wantSrc := doReq(t, hU, "GET", "/v1/sources", "", "").Body.String()

		// Ingest, checkpoint, die, restore, finish.
		ckpt := filepath.Join(t.TempDir(), "srv.ckpt")
		h1 := testServer(testEngine(t, workers), ckpt, 64).handler()
		if rec := doReq(t, h1, "POST", "/v1/observe", "", part1); rec.Code != http.StatusOK {
			t.Fatalf("workers=%d: part1 = %d: %s", workers, rec.Code, rec.Body)
		}
		if rec := doReq(t, h1, "POST", "/v1/checkpoint", "", ""); rec.Code != http.StatusOK {
			t.Fatalf("workers=%d: checkpoint = %d: %s", workers, rec.Code, rec.Body)
		}
		restored, err := stream.RestoreFile(ckpt)
		if err != nil {
			t.Fatal(err)
		}
		h2 := testServer(restored, ckpt, 64).handler()
		if rec := doReq(t, h2, "POST", "/v1/observe", "", part2); rec.Code != http.StatusOK {
			t.Fatalf("workers=%d: part2 = %d: %s", workers, rec.Code, rec.Body)
		}
		if got := doReq(t, h2, "GET", "/v1/estimates", "", "").Body.String(); got != wantEst {
			t.Errorf("workers=%d: restored /estimates differ from uninterrupted run\ngot:\n%s\nwant:\n%s", workers, got, wantEst)
		}
		if got := doReq(t, h2, "GET", "/v1/sources", "", "").Body.String(); got != wantSrc {
			t.Errorf("workers=%d: restored /sources differ from uninterrupted run", workers)
		}
	}
}

func TestServeObserveCSVAndQueries(t *testing.T) {
	h := testServer(testEngine(t, 2), "", 32).handler()
	rec := doReq(t, h, "POST", "/v1/observe", "text/csv", streamCSV(40))
	if rec.Code != http.StatusOK {
		t.Fatalf("csv observe = %d: %s", rec.Code, rec.Body)
	}
	var resp struct {
		Ingested     int64 `json:"ingested"`
		Observations int64 `json:"observations"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Ingested != 120 || resp.Observations != 120 {
		t.Errorf("ingested %d / observations %d, want 120/120", resp.Ingested, resp.Observations)
	}

	est := doReq(t, h, "GET", "/v1/estimates", "", "")
	if ct := est.Header().Get("Content-Type"); ct != "text/csv" {
		t.Errorf("estimates content type = %q", ct)
	}
	if body := est.Body.String(); !strings.HasPrefix(body, "object,value,confidence\n") || !strings.Contains(body, "o000,t,") {
		t.Errorf("estimates body:\n%s", body)
	}
	if body := doReq(t, h, "GET", "/v1/sources", "", "").Body.String(); !strings.Contains(body, "good1,") {
		t.Errorf("sources body:\n%s", body)
	}

	hz := doReq(t, h, "GET", "/v1/healthz", "", "")
	var health map[string]any
	if err := json.Unmarshal(hz.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health["status"] != "ok" || health["observations"] != float64(120) {
		t.Errorf("healthz = %v", health)
	}
}

func TestServeErrors(t *testing.T) {
	h := testServer(testEngine(t, 1), "", 32).handler()
	if rec := doReq(t, h, "GET", "/v1/observe", "", ""); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/observe = %d, want 405", rec.Code)
	}
	if rec := doReq(t, h, "POST", "/v1/estimates", "", ""); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/estimates = %d, want 405", rec.Code)
	}
	if rec := doReq(t, h, "POST", "/v1/checkpoint", "", ""); rec.Code != http.StatusConflict {
		t.Errorf("checkpoint with no path = %d, want 409", rec.Code)
	}
	if rec := doReq(t, h, "POST", "/v1/observe", "", "{not json"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad ndjson = %d, want 400", rec.Code)
	}
	if rec := doReq(t, h, "POST", "/v1/observe", "", `{"source":"s","object":"","value":"v"}`+"\n"); rec.Code != http.StatusBadRequest {
		t.Errorf("empty object field = %d, want 400", rec.Code)
	}
	// A bad row after good ones still reports the prefix ingested.
	body := `{"source":"s","object":"o","value":"v"}` + "\n" + "{broken\n"
	rec := doReq(t, h, "POST", "/v1/observe", "", body)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "ingested 1 claims") {
		t.Errorf("partial ingest = %d: %s", rec.Code, rec.Body)
	}
}

// syncBuffer is an io.Writer safe for the cross-goroutine logging the
// SIGTERM test does.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestServeStreamSIGTERM boots the real server loop on an ephemeral
// port, ingests over TCP, delivers a real SIGTERM to the process, and
// verifies the graceful path: drain, final checkpoint, clean exit,
// and a restorable state.
func TestServeStreamSIGTERM(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "sig.ckpt")
	eng := testEngine(t, 2)
	var out syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- newStreamServer(eng, serveConfig{Batch: 32, Store: stream.NewCheckpointStore(ckpt, 2)}, &out).serve("127.0.0.1:0")
	}()

	// Wait for the listen line and extract the bound address.
	var addr string
	deadline := time.Now().Add(5 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatalf("server never came up; log:\n%s", out.String())
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, "# listening on "); ok {
				addr = strings.TrimSpace(rest)
			}
		}
		time.Sleep(5 * time.Millisecond)
	}

	body := ndjsonFromCSV(streamCSV(20))
	resp, err := http.Post("http://"+addr+"/v1/observe", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("observe over TCP = %d", resp.StatusCode)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down after SIGTERM")
	}
	if !strings.Contains(out.String(), "# shutdown checkpoint written to ") {
		t.Errorf("missing shutdown checkpoint line:\n%s", out.String())
	}
	restored, err := stream.RestoreFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if obs := restored.Stats().Observations; obs != 60 {
		t.Errorf("restored observations = %d, want 60", obs)
	}
}

// TestStreamSubcommandCheckpointRestore drives the batch-mode flags:
// -checkpoint after a run, then -restore resuming with no new input.
func TestStreamSubcommandCheckpointRestore(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "batch.ckpt")
	var out bytes.Buffer
	err := runStream([]string{"-shards", "2", "-checkpoint", ckpt},
		strings.NewReader(streamCSV(50)), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "# checkpoint written to "+ckpt) {
		t.Errorf("missing checkpoint line:\n%s", out.String())
	}

	// Resuming with an empty stdin is fine: the restored engine already
	// holds the observations.
	out.Reset()
	err = runStream([]string{"-restore", ckpt}, strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "# restored 50 objects from 3 sources (150 observations") {
		t.Errorf("missing restore line:\n%s", s)
	}
	if !strings.Contains(s, "o000,t,") {
		t.Errorf("restored run lost the estimates:\n%s", s)
	}

	// A missing checkpoint with -restore starts fresh and says so.
	out.Reset()
	err = runStream([]string{"-restore", filepath.Join(t.TempDir(), "nope.ckpt")},
		strings.NewReader(streamCSV(5)), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "starting fresh") {
		t.Errorf("missing starting-fresh notice:\n%s", out.String())
	}
}

// TestServeRefineEndpoint covers the operator re-sweep: a default
// refine, an explicit sweep count, rejection of junk counts, and —
// the load-bearing part — refines racing a concurrent ingest stream
// without breaking determinism of the final state.
func TestServeRefineEndpoint(t *testing.T) {
	h := testServer(testEngine(t, 2), "", 32).handler()
	if rec := doReq(t, h, "POST", "/v1/observe", "text/csv", streamCSV(60)); rec.Code != http.StatusOK {
		t.Fatalf("observe = %d: %s", rec.Code, rec.Body)
	}
	rec := doReq(t, h, "POST", "/v1/refine", "", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("refine = %d: %s", rec.Code, rec.Body)
	}
	var resp struct {
		Sweeps       int   `json:"sweeps"`
		Observations int64 `json:"observations"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Sweeps != 2 || resp.Observations != 180 {
		t.Errorf("refine response = %+v, want sweeps=2 observations=180", resp)
	}
	if rec := doReq(t, h, "POST", "/v1/refine?sweeps=3", "", ""); rec.Code != http.StatusOK {
		t.Errorf("refine sweeps=3 = %d: %s", rec.Code, rec.Body)
	}
	for _, bad := range []string{"0", "-1", "9999", "two"} {
		if rec := doReq(t, h, "POST", "/v1/refine?sweeps="+bad, "", ""); rec.Code != http.StatusBadRequest {
			t.Errorf("refine sweeps=%s = %d, want 400", bad, rec.Code)
		}
	}
	if rec := doReq(t, h, "GET", "/v1/refine", "", ""); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/refine = %d, want 405", rec.Code)
	}
}

// TestServeRefineConcurrentWithIngest hammers /observe and /refine
// from concurrent clients (the ingest lock serializes them), then
// verifies every claim landed and a final refine converges the same
// state a sequential ingest+refine reaches.
func TestServeRefineConcurrentWithIngest(t *testing.T) {
	const chunks = 8
	bodies := make([]string, chunks)
	all := strings.Split(strings.TrimSpace(ndjsonFromCSV(streamCSV(200))), "\n")
	per := len(all) / chunks
	for i := range bodies {
		lo, hi := i*per, (i+1)*per
		if i == chunks-1 {
			hi = len(all)
		}
		bodies[i] = strings.Join(all[lo:hi], "\n") + "\n"
	}

	srv := testServer(testEngine(t, 2), "", 32)
	h := srv.handler()
	var wg sync.WaitGroup
	errs := make(chan string, chunks+4)
	for i := 0; i < chunks; i++ {
		wg.Add(1)
		go func(body string) {
			defer wg.Done()
			if rec := doReq(t, h, "POST", "/v1/observe", "", body); rec.Code != http.StatusOK {
				errs <- fmt.Sprintf("observe = %d: %s", rec.Code, rec.Body)
			}
		}(bodies[i])
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if rec := doReq(t, h, "POST", "/v1/refine", "", ""); rec.Code != http.StatusOK {
				errs <- fmt.Sprintf("refine = %d: %s", rec.Code, rec.Body)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if got := srv.eng.Stats().Observations; got != int64(len(all)) {
		t.Fatalf("observations = %d, want %d", got, len(all))
	}

	// Sequential reference: same claims, then the same final refine.
	ref := testServer(testEngine(t, 2), "", 32)
	hRef := ref.handler()
	for _, body := range bodies {
		if rec := doReq(t, hRef, "POST", "/v1/observe", "", body); rec.Code != http.StatusOK {
			t.Fatalf("reference observe = %d", rec.Code)
		}
	}
	doReq(t, h, "POST", "/v1/refine?sweeps=4", "", "")
	doReq(t, hRef, "POST", "/v1/refine?sweeps=4", "", "")
	got := doReq(t, h, "GET", "/v1/estimates", "", "").Body.String()
	want := doReq(t, hRef, "GET", "/v1/estimates", "", "").Body.String()
	if got != want {
		t.Error("estimates after concurrent ingest+refine diverge from sequential reference")
	}
}

// featureEngine builds an online-learning engine matching streamCSV's
// sources: the reliable pair shares a feature, the contrarian has its
// own.
func featureEngine(t *testing.T, workers int) *stream.Engine {
	t.Helper()
	opts := stream.DefaultEngineOptions()
	opts.Shards = 4
	opts.Workers = workers
	opts.EpochLength = 128
	opts.Features = map[string][]string{
		"good1": {"tier=reviewed"},
		"good2": {"tier=reviewed"},
		"bad":   {"tier=scraped"},
	}
	e, err := stream.NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestServeSourcesDetailInOnlineMode: a feature-mode server reports
// the accuracy decomposition on /sources, and the restart guarantee
// holds for the v2 checkpoint.
func TestServeSourcesDetailInOnlineMode(t *testing.T) {
	h := testServer(featureEngine(t, 2), "", 64).handler()
	if rec := doReq(t, h, "POST", "/v1/observe", "text/csv", streamCSV(150)); rec.Code != http.StatusOK {
		t.Fatalf("observe = %d: %s", rec.Code, rec.Body)
	}
	body := doReq(t, h, "GET", "/v1/sources", "", "").Body.String()
	if !strings.HasPrefix(body, "source,accuracy,learned,empirical\n") {
		t.Fatalf("online /sources missing detail header:\n%s", body)
	}
	var goodLearned, badLearned float64
	for _, line := range strings.Split(body, "\n") {
		var acc, learned, empirical float64
		if n, _ := fmt.Sscanf(line, "good1,%f,%f,%f", &acc, &learned, &empirical); n == 3 {
			goodLearned = learned
		}
		if n, _ := fmt.Sscanf(line, "bad,%f,%f,%f", &acc, &learned, &empirical); n == 3 {
			badLearned = learned
		}
	}
	if goodLearned <= badLearned {
		t.Errorf("learned accuracy: reviewed tier %.3f should exceed scraped %.3f", goodLearned, badLearned)
	}

	// Restart determinism with the learner in play.
	all := strings.Split(strings.TrimSpace(ndjsonFromCSV(streamCSV(300))), "\n")
	cut := 5 * len(all) / 9
	part1 := strings.Join(all[:cut], "\n") + "\n"
	part2 := strings.Join(all[cut:], "\n") + "\n"
	hU := testServer(featureEngine(t, 2), "", 64).handler()
	doReq(t, hU, "POST", "/v1/observe", "", part1)
	doReq(t, hU, "POST", "/v1/observe", "", part2)
	wantSrc := doReq(t, hU, "GET", "/v1/sources", "", "").Body.String()

	ckpt := filepath.Join(t.TempDir(), "online.ckpt")
	h1 := testServer(featureEngine(t, 2), ckpt, 64).handler()
	doReq(t, h1, "POST", "/v1/observe", "", part1)
	if rec := doReq(t, h1, "POST", "/v1/checkpoint", "", ""); rec.Code != http.StatusOK {
		t.Fatalf("checkpoint = %d: %s", rec.Code, rec.Body)
	}
	restored, err := stream.RestoreFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if !restored.OnlineLearning() {
		t.Fatal("restored engine lost the learner")
	}
	h2 := testServer(restored, ckpt, 64).handler()
	doReq(t, h2, "POST", "/v1/observe", "", part2)
	if got := doReq(t, h2, "GET", "/v1/sources", "", "").Body.String(); got != wantSrc {
		t.Errorf("restored online /sources diverges from uninterrupted run:\ngot:\n%s\nwant:\n%s", got, wantSrc)
	}
}

// TestMemberRepliesMatchEncodingJSON pins the member's observe, dedup
// and epoch-apply replies to the bytes json.Encoder writes for the
// map each used to be: sorted keys, HTML-escaped strings and the
// trailing newline, for seqs and tags that need escaping.
func TestMemberRepliesMatchEncodingJSON(t *testing.T) {
	encode := func(m map[string]any) string {
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return string(b) + "\n"
	}
	texts := []string{"", "k1", `a"b\c`, "<script>&amp;", "\x00\x1f\x7f", "  ", "bad\xffutf8", "é€😀", "line\u2028sep\u2029", "tab\there"}
	counts := []int64{0, 1, 64, 1 << 40, -3}
	for _, n := range counts {
		for _, m := range counts {
			if got, want := string(ingestReply(n, m)), encode(map[string]any{"ingested": n, "observations": m}); got != want {
				t.Errorf("ingestReply(%d, %d) = %q, want %q", n, m, got, want)
			}
		}
	}
	for _, s := range texts {
		for _, n := range counts {
			if got, want := string(dedupReply(s, n)), encode(map[string]any{"ingested": 0, "deduped": true, "seq": s, "observations": n}); got != want {
				t.Errorf("dedupReply(%q, %d) = %q, want %q", s, n, got, want)
			}
			if got, want := string(applyReply(s, n, int(n)+7)), encode(map[string]any{"tag": s, "epoch": n, "applied": int(n) + 7}); got != want {
				t.Errorf("applyReply(%q, %d) = %q, want %q", s, n, got, want)
			}
		}
	}
}
