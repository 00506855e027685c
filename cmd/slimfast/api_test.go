package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
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
// An object= lookup reaches the owning member alone, and still answers
// while another member is down.
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

	// Members count the estimate queries they serve, so the test can
	// see which ones a router query reached.
	var hits [nodes]atomic.Int64
	members := make([]*httptest.Server, nodes)
	urls := make([]string, nodes)
	for i := range members {
		h := memberHandler(t, batch, 1, "")
		members[i] = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/estimates" {
				hits[i].Add(1)
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(members[i].Close)
		urls[i] = members[i].URL
	}
	rs := newGoldenClusterOver(t, urls, batch, epochLen, 1)
	if rec := doReq(t, rs.handler(), "POST", "/v1/observe?seq=qgolden", "application/x-ndjson", ndjsonFromTriples(claims)); rec.Code != http.StatusOK {
		t.Fatalf("observe: %d %s", rec.Code, rec.Body)
	}

	// owner is the one member a lookup may reach, -1 when a query must
	// reach them all.
	const present = "obj042"
	own := func(object string) int { return stream.ShardIndex(object, nodes) }
	queries := []struct {
		raw   string
		owner int
	}{
		{"where=confidence<0.999&order=-contested&limit=12&cols=object,value,confidence,contested", -1},
		{"order=-contested,object&limit=7", -1},
		{"where=value=t0&cols=object&order=object", -1},
		{"disagree=s0,s7&order=object&limit=9", -1},
		{"group=value&agg=count,avg:confidence,max:contested", -1},
		{"group=value&agg=count&where=sources>=8", -1},
		{"where=object=" + present, own(present)},
		{"where=object=nosuch&cols=object,value", own("nosuch")},
		{"where=object=", own("")},
		{"where=object=" + present + "&where=sources>100", own(present)},
		{"where=object=" + present + "&where=object=obj043", own(present)},
		{"group=value&agg=count&where=object=" + present, own(present)},
		{"disagree=s0,s7&where=object=" + present, own(present)},
	}
	for _, qc := range queries {
		var before [nodes]int64
		for i := range hits {
			before[i] = hits[i].Load()
		}
		for _, format := range []string{"csv", "json"} {
			want := refQueryBytes(t, ref, qc.raw, format)
			rec := doReq(t, rs.handler(), "GET", "/v1/estimates?"+qc.raw+"&format="+format, "", "")
			if rec.Code != http.StatusOK {
				t.Fatalf("%s (%s): %d %s", qc.raw, format, rec.Code, rec.Body)
			}
			if got := rec.Body.String(); got != want {
				t.Errorf("%s (%s) diverged from the single engine\nrouter:\n%s\nreference:\n%s", qc.raw, format, got, want)
			}
		}
		for i := range hits {
			want := int64(2) // one request per format
			if qc.owner >= 0 && i != qc.owner {
				want = 0
			}
			if got := hits[i].Load() - before[i]; got != want {
				t.Errorf("%s reached member %d %d times, want %d", qc.raw, i, got, want)
			}
		}
	}
	if want := refQueryBytes(t, ref, "where=object="+present, "csv"); !strings.Contains(want, "\n"+present+",") {
		t.Fatalf("lookup of %s found no row:\n%s", present, want)
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

	// A lookup needs only its owner: with another member down it still
	// answers, byte-identical to the single engine.
	members[(own(present)+1)%nodes].Close()
	lookup := "where=object=" + present
	rec = doReq(t, rs.handler(), "GET", "/v1/estimates?"+lookup, "", "")
	if want := refQueryBytes(t, ref, lookup, "csv"); rec.Code != http.StatusOK || rec.Body.String() != want {
		t.Errorf("lookup with a non-owning member down = %d\nrouter:\n%s\nreference:\n%s", rec.Code, rec.Body, want)
	}
}

// TestPlainExportOnePath: the plain dump is the empty query on every
// surface. A node's and a router's bare GET /v1/estimates, `stream
// -values`, and Engine.EstimatesSeq written as 4-digit CSV all equal
// query.WriteCSV(query.Execute(ref, &query.Query{})) byte for byte,
// sorted by object whatever the shard count.
func TestPlainExportOnePath(t *testing.T) {
	const batch, epochLen = 32, 64
	claims := goldenClaims()
	var csvIn strings.Builder
	csvIn.WriteString("source,object,value\n")
	for _, tr := range claims {
		fmt.Fprintf(&csvIn, "%s,%s,%s\n", tr.Source, tr.Object, tr.Value)
	}
	for _, shards := range []int{1, 3} {
		newEngine := func() *stream.Engine {
			opts := stream.DefaultEngineOptions()
			opts.Shards = shards
			opts.EpochLength = epochLen
			eng, err := stream.NewEngine(opts)
			if err != nil {
				t.Fatal(err)
			}
			return eng
		}
		ref := newEngine()
		for lo := 0; lo < len(claims); lo += batch {
			ref.ObserveBatch(claims[lo:min(lo+batch, len(claims))])
		}
		want := refQueryBytes(t, ref, "", "csv")
		lines := strings.Split(strings.TrimSuffix(want, "\n"), "\n")
		if len(lines) != 121 {
			t.Fatalf("shards=%d: plain dump has %d lines, want header + 120 objects", shards, len(lines))
		}
		for i, line := range lines[1:] {
			if !strings.HasPrefix(line, fmt.Sprintf("obj%03d,", i)) {
				t.Fatalf("shards=%d: row %d is %q, want object order", shards, i, line)
			}
		}

		surfaces := map[string]func() string{
			"node": func() string {
				h := testServer(newEngine(), "", batch).handler()
				if rec := doReq(t, h, "POST", "/v1/observe", "application/x-ndjson", ndjsonFromTriples(claims)); rec.Code != http.StatusOK {
					t.Fatalf("node observe: %d %s", rec.Code, rec.Body)
				}
				return doReq(t, h, "GET", "/v1/estimates", "", "").Body.String()
			},
			"router": func() string {
				h := newGoldenCluster(t, shards, batch, epochLen, 1).handler()
				if rec := doReq(t, h, "POST", "/v1/observe", "application/x-ndjson", ndjsonFromTriples(claims)); rec.Code != http.StatusOK {
					t.Fatalf("router observe: %d %s", rec.Code, rec.Body)
				}
				return doReq(t, h, "GET", "/v1/estimates", "", "").Body.String()
			},
			"stream -values": func() string {
				values := filepath.Join(t.TempDir(), "values.csv")
				args := []string{"-shards", strconv.Itoa(shards), "-epoch", strconv.Itoa(epochLen),
					"-batch", strconv.Itoa(batch), "-refine", "0", "-values", values}
				if err := runStream(args, strings.NewReader(csvIn.String()), io.Discard); err != nil {
					t.Fatal(err)
				}
				out, err := os.ReadFile(values)
				if err != nil {
					t.Fatal(err)
				}
				return string(out)
			},
			"EstimatesSeq": func() string {
				var sb strings.Builder
				sb.WriteString("object,value,confidence\n")
				for est := range ref.EstimatesSeq() {
					fmt.Fprintf(&sb, "%s,%s,%.4f\n", est.Object, est.Value, est.Confidence)
				}
				return sb.String()
			},
		}
		for name, got := range surfaces {
			if got := got(); got != want {
				t.Errorf("shards=%d: %s diverged from the plain query\ngot:\n%s\nwant:\n%s", shards, name, got, want)
			}
		}
	}
}

// TestRouterFeaturesConflict: a cluster never runs the online learner
// (members run -external-epochs, which excludes -features), so the
// router answers GET /v1/features with 409 itself and asks no member,
// even one that could answer.
func TestRouterFeaturesConflict(t *testing.T) {
	opts := stream.DefaultEngineOptions()
	opts.Shards = 1
	opts.EpochLength = stream.ExternalEpochLength
	opts.Features = map[string][]string{"good1": {"tier=reviewed"}}
	eng, err := stream.NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	var asked atomic.Int64
	member := testServer(eng, "", 8).handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		asked.Add(1)
		member.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	rs := newGoldenClusterOver(t, []string{srv.URL}, 8, 16, 1)
	rec := doReq(t, rs.handler(), "GET", "/v1/features", "", "")
	if rec.Code != http.StatusConflict || decodeEnvelope(t, rec) != "conflict" {
		t.Fatalf("router features = %d: %s, want 409 conflict", rec.Code, rec.Body)
	}
	if n := asked.Load(); n != 0 {
		t.Errorf("router sent %d member requests for /v1/features, want 0", n)
	}
}

// TestParseClaimBodyAllocs pins the canonical NDJSON fast path: a
// 64-claim body costs at most the three field strings per claim plus a
// small constant — no decoder state, no reflection.
func TestParseClaimBodyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	const claims = 64
	body := ndjsonBodies(benchCorpus(64, 8, 8, 0), claims)[0]
	got := make([]stream.Triple, 0, claims)
	add := func(tr stream.Triple) error {
		got = append(got, tr)
		return nil
	}
	allocs := testing.AllocsPerRun(50, func() {
		got = got[:0]
		if err := parseClaimBody(body, "application/x-ndjson", add); err != nil {
			t.Fatal(err)
		}
	})
	if len(got) != claims {
		t.Fatalf("decoded %d claims, want %d", len(got), claims)
	}
	if limit := float64(3*claims + 4); allocs > limit {
		t.Errorf("parseClaimBody allocates %v per %d-claim body, want <= %v", allocs, claims, limit)
	}
}
