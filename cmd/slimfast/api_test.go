package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"slimfast/internal/query"
	"slimfast/internal/stream"
)

// decodeEnvelope asserts a response carries the uniform error envelope
// and returns its code.
func decodeEnvelope(t *testing.T, rec *httptest.ResponseRecorder) string {
	t.Helper()
	var env struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("non-JSON error body (%d): %s", rec.Code, rec.Body)
	}
	if env.Error == "" {
		t.Fatalf("envelope without error message (%d): %s", rec.Code, rec.Body)
	}
	if env.Code == "" {
		t.Fatalf("envelope without code (%d): %s", rec.Code, rec.Body)
	}
	return env.Code
}

// TestErrorEnvelopeMapping pins the status → code table of the uniform
// envelope.
func TestErrorEnvelopeMapping(t *testing.T) {
	for status, want := range map[int]string{
		http.StatusBadRequest:            "bad_request",
		http.StatusRequestEntityTooLarge: "bad_request",
		http.StatusRequestTimeout:        "timeout",
		http.StatusConflict:              "conflict",
		http.StatusTooManyRequests:       "shed",
		http.StatusServiceUnavailable:    "shed",
		http.StatusInternalServerError:   "internal",
	} {
		rec := httptest.NewRecorder()
		httpErrorLog(rec, newComponentLogger("text", io.Discard, "test"), status, "boom")
		if got := decodeEnvelope(t, rec); got != want {
			t.Errorf("status %d code = %q, want %q", status, got, want)
		}
	}
}

// TestErrorEnvelopeEndpoints drives every non-2xx family through real
// handlers and asserts each answer carries the envelope with the right
// code: 400 bad_request, 409 conflict, 429 shed, 500 internal, 503 in
// both its shed (saturation) and timeout (lock deadline) flavors.
func TestErrorEnvelopeEndpoints(t *testing.T) {
	plain := testServer(testEngine(t, 1), "", 32)
	h := plain.handler()

	cases := []struct {
		name     string
		rec      *httptest.ResponseRecorder
		status   int
		wantCode string
	}{
		{"bad ndjson", doReq(t, h, "POST", "/v1/observe", "", "{broken\n"), 400, "bad_request"},
		{"unknown query column", doReq(t, h, "GET", "/v1/estimates?where=bogus>1", "", ""), 400, "bad_request"},
		{"unknown format", doReq(t, h, "GET", "/v1/estimates?format=xml", "", ""), 400, "bad_request"},
		{"bad refine sweeps", doReq(t, h, "POST", "/v1/refine?sweeps=zero", "", ""), 400, "bad_request"},
		{"checkpoint without store", doReq(t, h, "POST", "/v1/checkpoint", "", ""), 409, "conflict"},
		{"features without learner", doReq(t, h, "GET", "/v1/features", "", ""), 409, "conflict"},
	}

	// 429: a body past the in-flight byte budget sheds.
	shedSrv := newStreamServer(testEngine(t, 1), serveConfig{Batch: 32, MaxInflightBytes: 16}, io.Discard)
	cases = append(cases, struct {
		name     string
		rec      *httptest.ResponseRecorder
		status   int
		wantCode string
	}{"saturated observe", doReq(t, shedSrv.handler(), "POST", "/v1/observe", "text/csv", streamCSV(20)), 429, "shed"})

	// 503/timeout: a wedged ingest lock past the request deadline.
	lockSrv := newStreamServer(testEngine(t, 1), serveConfig{Batch: 8, RequestTimeout: 30 * time.Millisecond}, io.Discard)
	lockSrv.lock <- struct{}{}
	lockRec := doReq(t, lockSrv.handler(), "POST", "/v1/observe", "text/csv", "s,o,v\n")
	<-lockSrv.lock
	cases = append(cases, struct {
		name     string
		rec      *httptest.ResponseRecorder
		status   int
		wantCode string
	}{"lock deadline", lockRec, 503, "timeout"})

	// 503/shed: a saturated readiness probe.
	satSrv := newStreamServer(testEngine(t, 1), serveConfig{Batch: 32, MaxInflightReqs: 1}, io.Discard)
	release, err := satSrv.gate.Acquire(1)
	if err != nil {
		t.Fatal(err)
	}
	satRec := doReq(t, satSrv.handler(), "GET", "/v1/readyz", "", "")
	release()
	cases = append(cases, struct {
		name     string
		rec      *httptest.ResponseRecorder
		status   int
		wantCode string
	}{"saturated readyz", satRec, 503, "shed"})

	// 500/internal: a poisoned request through the production
	// middleware and route wrapper.
	panicH := plain.ins.middleware(plain.ins.route("/v1/boom", func(http.ResponseWriter, *http.Request) {
		panic("poisoned")
	}))
	cases = append(cases, struct {
		name     string
		rec      *httptest.ResponseRecorder
		status   int
		wantCode string
	}{"handler panic", doReq(t, panicH, "GET", "/v1/estimates", "", ""), 500, "internal"})

	for _, tc := range cases {
		if tc.rec.Code != tc.status {
			t.Errorf("%s: status = %d, want %d: %s", tc.name, tc.rec.Code, tc.status, tc.rec.Body)
			continue
		}
		if got := decodeEnvelope(t, tc.rec); got != tc.wantCode {
			t.Errorf("%s: code = %q, want %q", tc.name, got, tc.wantCode)
		}
	}
}

// doReqAccept is doReq with an Accept header.
func doReqAccept(t *testing.T, h http.Handler, method, path, accept string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, nil)
	req.Header.Set("Accept", accept)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestServeQueryLanguageAndNegotiation covers the relational surface
// of GET /v1/estimates and /v1/sources on one node: filters, ordering,
// limits, grouping, disagree pairs, and CSV/NDJSON negotiation.
func TestServeQueryLanguageAndNegotiation(t *testing.T) {
	h := testServer(testEngine(t, 2), "", 32).handler()
	if rec := doReq(t, h, "POST", "/v1/observe", "text/csv", streamCSV(40)); rec.Code != http.StatusOK {
		t.Fatalf("observe = %d: %s", rec.Code, rec.Body)
	}

	// Plain CSV is the legacy byte surface.
	plain := doReq(t, h, "GET", "/v1/estimates", "", "")
	if ct := plain.Header().Get("Content-Type"); ct != "text/csv" {
		t.Errorf("plain content type = %q", ct)
	}
	if !strings.HasPrefix(plain.Body.String(), "object,value,confidence\n") {
		t.Errorf("plain body:\n%s", plain.Body)
	}

	// Accept negotiation selects NDJSON; ?format=json is equivalent.
	viaAccept := doReqAccept(t, h, "GET", "/v1/estimates?limit=3", "application/json")
	if ct := viaAccept.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("negotiated content type = %q", ct)
	}
	viaParam := doReq(t, h, "GET", "/v1/estimates?limit=3&format=json", "", "")
	if viaAccept.Body.String() != viaParam.Body.String() {
		t.Error("Accept negotiation and ?format=json disagree")
	}
	lines := strings.Split(strings.TrimSpace(viaAccept.Body.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("limit=3 returned %d NDJSON rows", len(lines))
	}
	var row struct {
		Object     string      `json:"object"`
		Value      string      `json:"value"`
		Confidence json.Number `json:"confidence"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &row); err != nil || row.Object == "" {
		t.Errorf("NDJSON row %q: %v", lines[0], err)
	}

	// Filter + order + limit + projection. streamCSV's consensus value
	// is "t" everywhere, claimed by two good sources against one bad.
	rec := doReq(t, h, "GET", "/v1/estimates?where=value=t&order=object&limit=2&cols=object,value", "", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("query = %d: %s", rec.Code, rec.Body)
	}
	if got := rec.Body.String(); got != "object,value\no000,t\no001,t\n" {
		t.Errorf("filtered query:\n%s", got)
	}

	// Group aggregation.
	rec = doReq(t, h, "GET", "/v1/estimates?group=value&agg=count", "", "")
	if got := rec.Body.String(); got != "value,count\nt,40\n" {
		t.Errorf("group query:\n%s", got)
	}

	// Disagree pair: good1 says t, bad says w, on every object.
	rec = doReq(t, h, "GET", "/v1/estimates?disagree=good1,bad&cols=object&order=object&limit=2", "", "")
	if got := rec.Body.String(); got != "object\no000\no001\n" {
		t.Errorf("disagree query:\n%s", got)
	}

	// Sources speak the same language.
	rec = doReq(t, h, "GET", "/v1/sources?where=source=good1&cols=source", "", "")
	if got := rec.Body.String(); got != "source\ngood1\n" {
		t.Errorf("sources query:\n%s", got)
	}
	if rec := doReqAccept(t, h, "GET", "/v1/sources?where=accuracy>=0", "application/json"); rec.Header().Get("Content-Type") != "application/x-ndjson" {
		t.Errorf("sources negotiation content type = %q", rec.Header().Get("Content-Type"))
	}
}

// refQueryBytes runs raw through the single reference engine and
// renders it in format — the byte-exactness oracle for router queries.
func refQueryBytes(t *testing.T, ref *stream.Engine, raw, format string) string {
	t.Helper()
	vals, err := url.ParseQuery(raw)
	if err != nil {
		t.Fatal(err)
	}
	q, err := query.Parse(vals, query.EstimateColumns())
	if err != nil {
		t.Fatal(err)
	}
	res, err := query.Execute(ref, q)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := query.Write(&buf, res, format); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestRouterQueryGoldenEquivalence is the scatter-gather proof: every
// query shape served through a three-node router is byte-identical to
// the same query against one three-shard engine — predicates, ordering
// and limits pushed to the members, group partials folded node-major.
func TestRouterQueryGoldenEquivalence(t *testing.T) {
	const nodes, batch, epochLen = 3, 32, 64
	claims := goldenClaims()

	refOpts := stream.DefaultEngineOptions()
	refOpts.Shards = nodes
	refOpts.EpochLength = epochLen
	ref, err := stream.NewEngine(refOpts)
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(claims); lo += batch {
		hi := min(lo+batch, len(claims))
		ref.ObserveBatch(claims[lo:hi])
	}

	rs := newGoldenCluster(t, nodes, batch, epochLen)
	if rec := doReq(t, rs.handler(), "POST", "/v1/observe?seq=qgolden", "application/x-ndjson", ndjsonFromTriples(claims)); rec.Code != http.StatusOK {
		t.Fatalf("observe: %d %s", rec.Code, rec.Body)
	}

	queries := []string{
		"where=confidence<0.999&order=-contested&limit=12&cols=object,value,confidence,contested",
		"order=-contested,object&limit=7",
		"where=value=t0&cols=object&order=object",
		"disagree=s0,s7&order=object&limit=9",
		"group=value&agg=count,avg:confidence,max:contested",
		"group=value&agg=count&where=sources>=8",
	}
	for _, raw := range queries {
		for _, format := range []string{"csv", "json"} {
			want := refQueryBytes(t, ref, raw, format)
			rec := doReq(t, rs.handler(), "GET", "/v1/estimates?"+raw+"&format="+format, "", "")
			if rec.Code != http.StatusOK {
				t.Fatalf("%s (%s): %d %s", raw, format, rec.Code, rec.Body)
			}
			if got := rec.Body.String(); got != want {
				t.Errorf("%s (%s) diverged from the single engine\nrouter:\n%s\nreference:\n%s", raw, format, got, want)
			}
		}
	}

	// Accept negotiation works on the router too.
	rec := doReqAccept(t, rs.handler(), "GET", "/v1/estimates?order=-contested&limit=3", "application/json")
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("router negotiation content type = %q", ct)
	}
	if want := refQueryBytes(t, ref, "order=-contested&limit=3", "json"); rec.Body.String() != want {
		t.Error("router negotiated NDJSON diverged from the single engine")
	}

	// Sources queries run over the merged cluster table; the oracle is
	// the same query over the reference engine's table at the precision
	// of the members' CSV surface (%.4f), which the router merges.
	rel := sourcesRelation(ref)
	for _, row := range rel.Rows {
		row[1].Num, _ = strconv.ParseFloat(row[1].String(), 64)
	}
	srcRaw := "order=-accuracy,source&limit=3"
	vals, _ := url.ParseQuery(srcRaw)
	q, err := query.Parse(vals, rel.Cols)
	if err != nil {
		t.Fatal(err)
	}
	res, err := query.ExecuteRelation(rel, q)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := query.Write(&want, res, "json"); err != nil {
		t.Fatal(err)
	}
	rec = doReq(t, rs.handler(), "GET", "/v1/sources?"+srcRaw+"&format=json", "", "")
	if rec.Code != http.StatusOK || rec.Body.String() != want.String() {
		t.Errorf("router sources query diverged (%d)\nrouter:\n%s\nreference:\n%s", rec.Code, rec.Body, want.String())
	}

	// Bad queries carry the envelope through the router.
	rec = doReq(t, rs.handler(), "GET", "/v1/estimates?where=bogus>1", "", "")
	if rec.Code != http.StatusBadRequest || decodeEnvelope(t, rec) != "bad_request" {
		t.Errorf("router bad query = %d: %s", rec.Code, rec.Body)
	}

	// A learner-less cluster answers /v1/features with 409 + envelope.
	rec = doReq(t, rs.handler(), "GET", "/v1/features", "", "")
	if rec.Code != http.StatusConflict || decodeEnvelope(t, rec) != "conflict" {
		t.Errorf("router features without learner = %d: %s", rec.Code, rec.Body)
	}
}

// TestRouterFeaturesRelay: with a feature-mode member in the cluster,
// GET /v1/features on the router relays its weight table.
func TestRouterFeaturesRelay(t *testing.T) {
	opts := stream.DefaultEngineOptions()
	opts.Shards = 1
	opts.EpochLength = stream.ExternalEpochLength
	opts.Features = map[string][]string{"good1": {"tier=reviewed"}}
	eng, err := stream.NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(testServer(eng, "", 8).handler())
	t.Cleanup(srv.Close)
	rs := newGoldenClusterOver(t, []string{srv.URL}, 8, 16)
	rec := doReq(t, rs.handler(), "GET", "/v1/features", "", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("router features = %d: %s", rec.Code, rec.Body)
	}
	if !strings.HasPrefix(rec.Body.String(), "feature,weight\n") {
		t.Errorf("router features body:\n%s", rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/csv" {
		t.Errorf("router features content type = %q", ct)
	}
}
