package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"slimfast/internal/obs"
	"slimfast/internal/resilience"
	"slimfast/internal/stream"
)

// obsServer builds a streamServer over a shared registry that also
// carries the engine instrumentation, the way runStream wires it.
func obsServer(t *testing.T, logw io.Writer) (*streamServer, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	eng := testEngine(t, 2)
	eng.SetMetrics(stream.NewMetrics(reg))
	return newStreamServer(eng, serveConfig{Batch: 32, Registry: reg}, logw), reg
}

// scrape fetches /v1/metrics through the public handler and parses the
// exposition strictly.
func scrape(t *testing.T, h http.Handler) map[string]*obs.Family {
	t.Helper()
	rec := doReq(t, h, "GET", "/v1/metrics", "", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/metrics = %d: %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("metrics Content-Type = %q, want %q", ct, obs.ContentType)
	}
	fams, err := obs.Parse(bytes.NewReader(rec.Body.Bytes()))
	if err != nil {
		t.Fatalf("metrics output does not parse: %v", err)
	}
	return fams
}

// newTaggedRequest builds a recorder pair with an X-Request-ID set.
func newTaggedRequest(method, path, body, id string) (*http.Request, *httptest.ResponseRecorder) {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "text/csv")
	req.Header.Set(resilience.RequestIDHeader, id)
	return req, httptest.NewRecorder()
}

// TestMetricsEndpoint: one ingest request moves the HTTP and engine
// families, and the scrape output round-trips through the strict
// parser.
func TestMetricsEndpoint(t *testing.T) {
	srv, _ := obsServer(t, io.Discard)
	h := srv.handler()

	if rec := doReq(t, h, "POST", "/v1/observe", "text/csv", "s1,o1,v1\ns2,o1,v1\n"); rec.Code != http.StatusOK {
		t.Fatalf("observe = %d: %s", rec.Code, rec.Body)
	}
	fams := scrape(t, h)

	reqs, ok := fams["slimfast_http_requests_total"]
	if !ok {
		t.Fatal("scrape missing slimfast_http_requests_total")
	}
	if v, ok := reqs.Value("slimfast_http_requests_total",
		map[string]string{"route": "/v1/observe", "status": "200"}); !ok || v != 1 {
		t.Errorf("observe request count = %v (ok=%v), want 1", v, ok)
	}
	if eng, ok := fams["slimfast_engine_observations_total"]; !ok {
		t.Error("scrape missing slimfast_engine_observations_total")
	} else if v, _ := eng.Value("slimfast_engine_observations_total", nil); v != 2 {
		t.Errorf("engine observations = %v, want 2", v)
	}
	if dur, ok := fams["slimfast_http_request_duration_seconds"]; !ok {
		t.Error("scrape missing slimfast_http_request_duration_seconds")
	} else if v, ok := dur.Value("slimfast_http_request_duration_seconds_count",
		map[string]string{"route": "/v1/observe"}); !ok || v != 1 {
		t.Errorf("observe duration count = %v (ok=%v), want 1", v, ok)
	}
	if _, ok := fams["slimfast_http_inflight_requests"]; !ok {
		t.Error("scrape missing slimfast_http_inflight_requests")
	}
}

// TestBarePathsNotFound: every route is mounted once, under /v1. The
// unversioned paths answer the mux's plain 404 on node and router
// alike, and no deprecated-alias family is exported.
func TestBarePathsNotFound(t *testing.T) {
	srv, _ := obsServer(t, io.Discard)
	for name, h := range map[string]http.Handler{"node": srv.handler(), "router": newGoldenCluster(t, 1, 8, 16, 1).handler()} {
		for _, req := range []struct{ method, path string }{
			{"POST", "/observe"}, {"GET", "/estimates"}, {"GET", "/sources"}, {"GET", "/features"},
			{"POST", "/refine"}, {"POST", "/checkpoint"}, {"GET", "/healthz"}, {"GET", "/readyz"},
			{"POST", "/epoch/drain"}, {"GET", "/metrics"},
		} {
			if rec := doReq(t, h, req.method, req.path, "text/csv", "s,o,v\n"); rec.Code != http.StatusNotFound {
				t.Errorf("%s: %s %s = %d, want 404", name, req.method, req.path, rec.Code)
			}
		}
		if rec := doReq(t, h, "GET", "/v1/estimates", "", ""); rec.Code != http.StatusOK {
			t.Errorf("%s: /v1/estimates = %d", name, rec.Code)
		}
		if _, ok := scrape(t, h)["slimfast_deprecated_requests_total"]; ok {
			t.Errorf("%s still exports slimfast_deprecated_requests_total", name)
		}
	}
}

// TestRequestIDEcho: a provided X-Request-ID is echoed and reaches the
// ingest log line; absent, the server mints one.
func TestRequestIDEcho(t *testing.T) {
	var log bytes.Buffer
	srv, _ := obsServer(t, &log)
	h := srv.handler()

	rec := doReq(t, h, "GET", "/v1/healthz", "", "")
	if id := rec.Header().Get(resilience.RequestIDHeader); id == "" {
		t.Error("no X-Request-ID minted for an untagged request")
	}

	req, rec2 := newTaggedRequest("POST", "/v1/observe", "s,o,v\n", "trace-echo-1")
	h.ServeHTTP(rec2, req)
	if rec2.Code != http.StatusOK {
		t.Fatalf("observe = %d: %s", rec2.Code, rec2.Body)
	}
	if got := rec2.Header().Get(resilience.RequestIDHeader); got != "trace-echo-1" {
		t.Errorf("echoed request ID = %q, want trace-echo-1", got)
	}
	if !strings.Contains(log.String(), "trace-echo-1") {
		t.Errorf("request ID absent from the ingest log:\n%s", log.String())
	}
	if !strings.Contains(log.String(), "ingested claims") {
		t.Errorf("no ingest record logged:\n%s", log.String())
	}
}

// TestShedAndDedupCounters: the admission 429 and an idempotency-key
// replay move their dedicated counters.
func TestShedAndDedupCounters(t *testing.T) {
	reg := obs.NewRegistry()
	srv := newStreamServer(testEngine(t, 1), serveConfig{Batch: 32, MaxInflightBytes: 8, Registry: reg}, io.Discard)
	h := srv.handler()
	if rec := doReq(t, h, "POST", "/v1/observe", "text/csv", strings.Repeat("s,o,v\n", 10)); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("oversized observe = %d, want 429", rec.Code)
	}
	fams := scrape(t, h)
	shedFam, ok := fams["slimfast_http_shed_total"]
	if !ok {
		t.Fatal("scrape missing slimfast_http_shed_total")
	}
	if v, _ := shedFam.Value("slimfast_http_shed_total", nil); v != 1 {
		t.Errorf("shed counter = %v, want 1", v)
	}

	dedupSrv, _ := obsServer(t, io.Discard)
	dh := dedupSrv.handler()
	for i := 0; i < 2; i++ {
		if rec := doReq(t, dh, "POST", "/v1/observe?seq=once", "text/csv", "s,o,v\n"); rec.Code != http.StatusOK {
			t.Fatalf("observe #%d = %d", i, rec.Code)
		}
	}
	dfams := scrape(t, dh)
	dedupFam, ok := dfams["slimfast_http_dedup_replays_total"]
	if !ok {
		t.Fatal("scrape missing slimfast_http_dedup_replays_total")
	}
	if v, _ := dedupFam.Value("slimfast_http_dedup_replays_total", nil); v != 1 {
		t.Errorf("dedup replay counter = %v, want 1", v)
	}
}

// TestMiddlewarePanicMetrics: the middleware's recovery increments the
// panic counter and still answers the enveloped 500.
func TestMiddlewarePanicMetrics(t *testing.T) {
	var log bytes.Buffer
	reg := obs.NewRegistry()
	ins := newInstrumentor(reg, newComponentLogger("text", &log, "test"))
	h := ins.middleware(ins.route("/boom", func(http.ResponseWriter, *http.Request) {
		panic("poisoned request")
	}))
	rec := doReq(t, h, "GET", "/boom", "", "")
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler = %d, want 500", rec.Code)
	}
	if !strings.Contains(log.String(), "PANIC") || !strings.Contains(log.String(), "poisoned request") {
		t.Errorf("panic not logged:\n%s", log.String())
	}
	if !strings.Contains(log.String(), "goroutine") {
		t.Errorf("panic log missing the stack:\n%s", log.String())
	}
	var sb strings.Builder
	if err := reg.Write(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "slimfast_http_panics_total 1") {
		t.Errorf("panic counter did not move:\n%s", sb.String())
	}
	// The request counter records the status the client got.
	fams, err := obs.Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	reqs := fams["slimfast_http_requests_total"]
	if v, ok := reqs.Value("slimfast_http_requests_total", map[string]string{"route": "/boom", "status": "500"}); !ok || v != 1 {
		t.Errorf("panicked request counted as 500 %v times (ok=%v), want 1", v, ok)
	}
	if v, ok := reqs.Value("slimfast_http_requests_total", map[string]string{"route": "/boom", "status": "200"}); ok {
		t.Errorf("panicked request counted as 200 (%v)", v)
	}
}

// TestRouterMetricsEndpoint: the router serves its own /v1/metrics
// with the router families after a fan-out.
func TestRouterMetricsEndpoint(t *testing.T) {
	rs := newGoldenCluster(t, 2, 16, 32, 1)
	h := rs.handler()
	claims := goldenClaims()[:64]
	if rec := doReq(t, h, "POST", "/v1/observe?seq=met", "application/x-ndjson", ndjsonFromTriples(claims)); rec.Code != http.StatusOK {
		t.Fatalf("observe = %d: %s", rec.Code, rec.Body)
	}
	fams := scrape(t, h)
	if reqs, ok := fams["slimfast_http_requests_total"]; !ok {
		t.Error("router scrape missing slimfast_http_requests_total")
	} else if v, _ := reqs.Value("slimfast_http_requests_total",
		map[string]string{"route": "/v1/observe", "status": "200"}); v != 1 {
		t.Errorf("router observe count = %v, want 1", v)
	}
}
