// The /v1 HTTP surface, written once for both serving processes: the
// single node behind `slimfast stream -listen` (serve.go) and the
// cluster coordinator behind `slimfast router` (router.go). Each plugs
// a backend into one handler set, so the two share the route table,
// the error envelope, format negotiation, result rendering, the body
// read and the listen/signal/shutdown lifecycle — and a client cannot
// tell a cluster from one engine.
//
// Endpoints (see docs/API.md for the full contract):
//
//	POST /v1/observe     ingest claims (NDJSON objects or text/csv rows);
//	                     idempotent when stamped with X-Batch-Seq
//	GET  /v1/estimates   the estimates relation: the object-sorted plain
//	                     dump, or filtered / ordered / limited / grouped
//	                     via query parameters
//	                     (where, order, limit, cols, group, agg, disagree);
//	                     CSV by default, NDJSON via format=json or
//	                     Accept: application/json
//	GET  /v1/sources     source accuracies, same query language and formats
//	GET  /v1/features    online learner feature weights as CSV
//	POST /v1/refine      run the exact re-sweep (?sweeps=N, default 2)
//	POST /v1/checkpoint  make the state durable
//	GET  /v1/healthz     liveness + stats as JSON; always 200 while up
//	GET  /v1/readyz      readiness: 503 + Retry-After when no load can be taken
//	GET  /v1/metrics     Prometheus text exposition
//
// A backend may mount extra POST routes (a node's /v1/epoch/*
// control plane). Every non-2xx response carries the uniform error
// envelope {"error": ..., "code": shed|timeout|bad_request|conflict|internal},
// and 429/503 carry Retry-After. Unmatched paths — the unversioned
// ones included — and wrong methods get the mux's plain-text 404/405,
// the one surface outside the envelope.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"slimfast/internal/data"
	"slimfast/internal/obs"
	"slimfast/internal/query"
	"slimfast/internal/resilience"
	"slimfast/internal/stream"
)

// backend is what the shared handlers need from a serving process.
// Methods return data or an error (an *apiError picks the status; any
// other error is a 500) and never write responses themselves.
type backend interface {
	// observe ingests one claim body. read returns the bounded request
	// body; a backend may answer without calling it (a node's admission
	// shed or idempotent replay).
	observe(r *http.Request, seq string, read func() ([]byte, error)) (any, error)
	// estimates runs a query over the estimates relation; partial asks
	// for unfinalized group aggregates (the router's scatter format).
	estimates(ctx context.Context, q *query.Query, partial bool) (*query.Result, error)
	sources(ctx context.Context) (*query.Relation, error)
	features(ctx context.Context, w io.Writer) error
	refine(ctx context.Context, sweeps int) (any, error)
	checkpoint(ctx context.Context) (any, error)
	health(ctx context.Context) any
	// ready reports readiness detail; a non-empty unready message
	// answers 503.
	ready(ctx context.Context) (body map[string]any, unready string)
	// routes are backend-only POST endpoints by mux pattern; the shared
	// layer reads their body and renders their answer.
	routes() map[string]func(ctx context.Context, body []byte) (any, error)
	// start runs once the listener is up; ctx ends at shutdown. stop
	// makes the state durable after the server drained.
	start(ctx context.Context)
	stop() error
}

// server is the shared HTTP layer over one backend.
type server struct {
	be   backend
	logw io.Writer
	log  *slog.Logger
	reg  *obs.Registry
	ins  *instrumentor
	// bodyTimeout bounds one request body read (0 = no deadline).
	bodyTimeout time.Duration
}

// newServer builds the HTTP layer; a nil registry gets a fresh one, so
// callers without process metrics still serve /v1/metrics with the
// HTTP families.
func newServer(be backend, logw io.Writer, reg *obs.Registry, logFormat, component string) *server {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	log := newComponentLogger(logFormat, logw, component)
	return &server{be: be, logw: logw, log: log, reg: reg, ins: newInstrumentor(reg, log)}
}

// handler builds the route table. Method matching is delegated to the
// ServeMux patterns (wrong methods get 405 for free); every route is
// instrumented under its own path.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mount := func(pattern string, h http.HandlerFunc) {
		_, path, _ := strings.Cut(pattern, " ")
		mux.HandleFunc(pattern, s.ins.route(path, h))
	}
	mount("POST /v1/observe", s.reply(func(w http.ResponseWriter, r *http.Request) (any, error) {
		return s.be.observe(r, seqKey(r), func() ([]byte, error) { return s.readBody(w, r) })
	}))
	mount("GET /v1/estimates", s.handleRead("estimates"))
	mount("GET /v1/sources", s.handleRead("sources"))
	mount("GET /v1/features", func(w http.ResponseWriter, r *http.Request) {
		s.render(w, r, "text/csv", func(out io.Writer) error { return s.be.features(r.Context(), out) })
	})
	mount("POST /v1/refine", s.reply(s.handleRefine))
	mount("POST /v1/checkpoint", s.reply(func(_ http.ResponseWriter, r *http.Request) (any, error) {
		return s.be.checkpoint(r.Context())
	}))
	mount("GET /v1/healthz", s.reply(func(_ http.ResponseWriter, r *http.Request) (any, error) {
		return s.be.health(r.Context()), nil
	}))
	mount("GET /v1/readyz", s.handleReadyz)
	mount("GET /v1/metrics", s.reg.Handler().ServeHTTP)
	for pattern, h := range s.be.routes() {
		mount(pattern, s.reply(func(w http.ResponseWriter, r *http.Request) (any, error) {
			body, err := s.readBody(w, r)
			if err != nil {
				return nil, err
			}
			return h(r.Context(), body)
		}))
	}
	return s.ins.middleware(mux)
}

// apiError is a failure that knows its HTTP answer.
type apiError struct {
	status int
	code   string // envelope code; "" derives it from status
	msg    string
}

func (e *apiError) Error() string { return e.msg }

// errStatus builds an apiError with a formatted message.
func errStatus(status int, format string, args ...any) error {
	return &apiError{status: status, msg: fmt.Sprintf(format, args...)}
}

// fail answers err with the uniform envelope: an *apiError's status
// and code, anything else as a 500.
func (s *server) fail(w http.ResponseWriter, r *http.Request, err error) {
	ae := &apiError{status: http.StatusInternalServerError, msg: err.Error()}
	errors.As(err, &ae)
	if ae.status == http.StatusTooManyRequests || ae.status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	code := ae.code
	if code == "" {
		code = errorCode(ae.status)
	}
	httpErrorCodeLog(w, requestLogger(r.Context(), s.log), ae.status, code, ae.msg)
}

// reply adapts a JSON endpoint: its value is the 200 body, its error
// the envelope.
func (s *server) reply(h func(w http.ResponseWriter, r *http.Request) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		v, err := h(w, r)
		if err != nil {
			s.fail(w, r, err)
			return
		}
		s.writeJSON(w, r, http.StatusOK, v)
	}
}

func (s *server) writeJSON(w http.ResponseWriter, r *http.Request, code int, v any) {
	writeJSONLog(w, requestLogger(r.Context(), s.log), code, v)
}

// render emits a response body into a buffer first, so a failure still
// becomes a clean error answer — writing straight to the
// ResponseWriter would commit a 200 before the error surfaced.
func (s *server) render(w http.ResponseWriter, r *http.Request, contentType string, emit func(io.Writer) error) {
	var buf bytes.Buffer
	if err := emit(&buf); err != nil {
		s.fail(w, r, err)
		return
	}
	w.Header().Set("Content-Type", contentType)
	if _, err := w.Write(buf.Bytes()); err != nil {
		requestLogger(r.Context(), s.log).Warn("writing response failed", slog.Any("error", err))
	}
}

// maxBody caps one request body at 256 MiB: large enough for bulk
// ingest chunks, small enough that a hostile or buggy client cannot
// OOM the long-running service with a single unbounded body. Bigger
// streams just arrive as multiple requests.
const maxBody = 256 << 20

// readBody reads the whole request body under maxBody and, when set,
// the body deadline — which cuts off trickling bodies: without it a
// client sending one byte per minute holds its admission slot forever.
func (s *server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	op := strings.TrimPrefix(r.URL.Path, "/v1/")
	if s.bodyTimeout > 0 {
		rc := http.NewResponseController(w)
		rc.SetReadDeadline(time.Now().Add(s.bodyTimeout))
		defer rc.SetReadDeadline(time.Time{})
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
		return body, nil
	case errors.As(err, &tooBig):
		return nil, errStatus(http.StatusRequestEntityTooLarge,
			"%s: body exceeds %d bytes; split the stream into smaller requests", op, tooBig.Limit)
	case errors.Is(err, os.ErrDeadlineExceeded):
		return nil, errStatus(http.StatusRequestTimeout, "%s: body not received within %v", op, s.bodyTimeout)
	default:
		return nil, errStatus(http.StatusBadRequest, "%s: reading body: %v", op, err)
	}
}

// readFormat negotiates a relational read's response format: an
// explicit format parameter wins, otherwise an Accept header naming
// application/json selects NDJSON, default CSV.
func readFormat(r *http.Request, table string) (string, error) {
	switch f := r.URL.Query().Get("format"); f {
	case "":
		if strings.Contains(r.Header.Get("Accept"), "application/json") {
			return "json", nil
		}
		return "csv", nil
	case "csv", "json", "ndjson":
		return f, nil
	default:
		return "", errStatus(http.StatusBadRequest, "%s: unknown format %q (want csv or json)", table, f)
	}
}

// runRead is the one parse-and-execute for the relational reads,
// shared by GET /v1/estimates, GET /v1/sources and `query -from`: it
// resolves the table, parses vals against its columns and executes. The
// sources relation is resolved before parsing because its columns
// depend on the engine (an online learner adds learned and empirical).
// A bare estimates query is the empty query, the object-sorted plain
// dump; partial asks for the router's unfinalized group aggregates.
func runRead(ctx context.Context, be backend, table string, vals url.Values, partial bool) (*query.Result, error) {
	if table == "sources" {
		rel, err := be.sources(ctx)
		if err != nil {
			return nil, err
		}
		q, err := query.Parse(vals, rel.Cols)
		if err == nil {
			var res *query.Result
			if res, err = query.ExecuteRelation(rel, q); err == nil {
				return res, nil
			}
		}
		return nil, errStatus(http.StatusBadRequest, "sources: %v", err)
	}
	q, err := query.Parse(vals, query.EstimateColumns())
	if err != nil {
		return nil, errStatus(http.StatusBadRequest, "estimates: %v", err)
	}
	return be.estimates(ctx, q, partial)
}

// handleRead serves a relational read of table: the format is
// negotiated first, then runRead parses and executes, and the result
// is rendered in that format.
func (s *server) handleRead(table string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		format, err := readFormat(r, table)
		if err != nil {
			s.fail(w, r, err)
			return
		}
		vals := r.URL.Query()
		res, err := runRead(r.Context(), s.be, table, vals, vals.Get("partial") != "")
		if err != nil {
			s.fail(w, r, err)
			return
		}
		contentType := "application/x-ndjson"
		if format == "csv" {
			contentType = "text/csv"
		}
		s.render(w, r, contentType, func(out io.Writer) error { return query.Write(out, res, format) })
	}
}

// maxRefineSweeps caps an operator-requested re-sweep: each sweep is
// O(total claims), and an absurd count from a typo must not wedge the
// ingest lock for hours.
const maxRefineSweeps = 64

// handleRefine validates ?sweeps=N (default 2) and runs the exact
// re-sweep — the way to tighten single-pass estimates to the batch
// fixed point without restarting the service.
func (s *server) handleRefine(_ http.ResponseWriter, r *http.Request) (any, error) {
	sweeps := 2
	if q := r.URL.Query().Get("sweeps"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 1 || n > maxRefineSweeps {
			return nil, errStatus(http.StatusBadRequest, "refine: sweeps must be an integer in [1,%d], got %q", maxRefineSweeps, q)
		}
		sweeps = n
	}
	return s.be.refine(r.Context(), sweeps)
}

// handleReadyz answers 200 with the backend's detail, or 503 +
// Retry-After — the signal a load balancer uses to rotate a replica
// out — carrying the envelope keys alongside the detail.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	body, unready := s.be.ready(r.Context())
	if unready == "" {
		s.writeJSON(w, r, http.StatusOK, body)
		return
	}
	body["error"], body["code"] = unready, "shed"
	w.Header().Set("Retry-After", "1")
	s.writeJSON(w, r, http.StatusServiceUnavailable, body)
}

// serve runs the HTTP service on addr until SIGTERM/SIGINT or a fatal
// listener error. On a signal it stops accepting and drains in-flight
// requests; either way the backend then makes its state durable, so
// the next boot resumes exactly here.
func (s *server) serve(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	// The resolved address line is machine-readable on purpose: with
	// -listen :0 it is how scripts discover the port.
	fmt.Fprintf(s.logw, "# listening on %s\n", ln.Addr())
	// No ReadTimeout: large ingest bodies may legitimately take a
	// while, and -request-timeout bounds them per request when the
	// operator wants that. Header and idle timeouts still shed dead
	// connections.
	srv := &http.Server{
		Handler:           s.handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	s.be.start(ctx)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	var shutdownErr error
	select {
	case <-ctx.Done():
		stop() // restore default signal behavior: a second signal kills
		fmt.Fprintf(s.logw, "# signal received, draining connections\n")
		shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		// A drain timeout (a client still holding a request) must not
		// skip the final durable write — save what we have either way.
		shutdownErr = srv.Shutdown(shutCtx)
	case err := <-errc:
		// A fatal listener error still falls through to the final
		// durable write: the state is intact even when the socket is not.
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			shutdownErr = err
		}
	}
	if err := s.be.stop(); err != nil {
		return errors.Join(shutdownErr, err)
	}
	return shutdownErr
}

// encodedJSON is a response body already encoded exactly as
// json.Encoder would encode it, trailing newline included;
// writeJSONLog writes it as is.
type encodedJSON []byte

// writeJSONLog writes a JSON response; encode/write failures are
// logged on log, not dropped.
func writeJSONLog(w http.ResponseWriter, log *slog.Logger, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	var err error
	if b, ok := v.(encodedJSON); ok {
		_, err = w.Write(b)
	} else {
		err = json.NewEncoder(w).Encode(v)
	}
	if err != nil {
		log.Warn("writing JSON response failed", slog.Any("error", err))
	}
}

// errorCode maps an HTTP status to the machine-readable code of the
// uniform error envelope. 503 defaults to "shed" (admission pressure);
// where a 503 really means a deadline (the ingest-lock wait) the
// apiError names "timeout" instead.
func errorCode(status int) string {
	switch status {
	case http.StatusRequestTimeout:
		return "timeout"
	case http.StatusConflict:
		return "conflict"
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return "shed"
	case http.StatusInternalServerError:
		return "internal"
	default:
		return "bad_request"
	}
}

// httpErrorLog writes the uniform JSON error envelope with the code
// derived from the status.
func httpErrorLog(w http.ResponseWriter, log *slog.Logger, status int, msg string) {
	httpErrorCodeLog(w, log, status, errorCode(status), msg)
}

// httpErrorCodeLog writes the error envelope with an explicit code.
func httpErrorCodeLog(w http.ResponseWriter, log *slog.Logger, status int, code, msg string) {
	writeJSONLog(w, log, status, map[string]any{"error": msg, "code": code})
}

// seqKey extracts the client's idempotency key: the X-Batch-Seq
// header, or the ?seq query parameter for header-less clients.
func seqKey(r *http.Request) string {
	if k := r.Header.Get(resilience.SeqHeader); k != "" {
		return k
	}
	return r.URL.Query().Get("seq")
}

// errEmptyClaimField is the shared validation failure for ingest rows.
var errEmptyClaimField = errors.New("source, object and value must all be non-empty")

// parseClaimBody streams an ingest body through add: text/csv bodies
// use the source,object,value exchange format (header row optional),
// anything else is parsed as NDJSON, and a row with an empty field is
// an error. On error, claims before the bad row have already been
// delivered to add — the caller reports how many.
//
// NDJSON runs of canonical records take stream.CutClaim's fast path;
// from the first record it does not accept, the rest of the body goes
// through encoding/json with the row count carried on. CutClaim only
// accepts records encoding/json decodes identically, so the triples,
// error texts and row numbers are those of the plain decoder loop.
func parseClaimBody(body []byte, contentType string, add func(stream.Triple) error) error {
	check := func(source, object, value string) error {
		if source == "" || object == "" || value == "" {
			return errEmptyClaimField
		}
		return add(stream.Triple{Source: source, Object: object, Value: value})
	}
	if strings.Contains(contentType, "csv") {
		return data.StreamObservationsCSV(bytes.NewReader(body), check)
	}
	row := 0
	for len(body) > 0 {
		tr, rest, ok := stream.CutClaim(body)
		if !ok {
			break
		}
		body = rest
		row++
		if aerr := check(tr.Source, tr.Object, tr.Value); aerr != nil {
			return fmt.Errorf("ndjson row %d: %w", row, aerr)
		}
	}
	if len(body) == 0 {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	for {
		var ob stream.Triple
		if derr := dec.Decode(&ob); derr == io.EOF {
			return nil
		} else if derr != nil {
			return fmt.Errorf("ndjson row %d: %w", row+1, derr)
		}
		row++
		if aerr := check(ob.Source, ob.Object, ob.Value); aerr != nil {
			return fmt.Errorf("ndjson row %d: %w", row, aerr)
		}
	}
}
