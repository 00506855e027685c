// HTTP instrumentation shared by the node server and the cluster
// router: the slimfast_http_* metric families, the X-Request-ID
// tracing middleware, and the per-route wrapper that recovers panics
// and counts, times and access-logs every request. All of it is
// allocation-frugal — the request-duration child is resolved once at
// mount, status labels are precomputed, and counter increments are
// single atomic adds — so the instrumented /observe path stays inside
// the benchdiff allocation gate.
package main

import (
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"slimfast/internal/obs"
	"slimfast/internal/resilience"
)

// httpMetrics is the serving-surface instrumentation seam. The zero
// value is a no-op (every obs method is nil-safe), so handlers never
// guard their increments.
type httpMetrics struct {
	// requests counts completed requests by canonical route and status;
	// duration times them by route.
	requests *obs.CounterVec
	duration *obs.HistogramVec
	// inflight is the number of requests currently inside a handler.
	inflight *obs.Gauge
	// panics counts requests recovered into a 500.
	panics *obs.Counter
	// shed / timeouts / dedupReplays break the interesting non-2xx
	// flavors out of the status labels: admission-gate 429s, ingest-lock
	// deadline 503s, and idempotency-key replays acknowledged without
	// re-ingesting.
	shed         *obs.Counter
	timeouts     *obs.Counter
	dedupReplays *obs.Counter
}

// newHTTPMetrics registers the slimfast_http_* families on reg.
func newHTTPMetrics(reg *obs.Registry) httpMetrics {
	return httpMetrics{
		requests:     reg.CounterVec("slimfast_http_requests_total", "Completed HTTP requests by canonical route and status.", "route", "status"),
		duration:     reg.HistogramVec("slimfast_http_request_duration_seconds", "Request latency by canonical route.", nil, "route"),
		inflight:     reg.Gauge("slimfast_http_inflight_requests", "Requests currently being served."),
		panics:       reg.Counter("slimfast_http_panics_total", "Handler panics recovered into 500 responses."),
		shed:         reg.Counter("slimfast_http_shed_total", "Requests shed with 429 by the admission gate."),
		timeouts:     reg.Counter("slimfast_http_timeouts_total", "Requests that gave up waiting for the ingest lock."),
		dedupReplays: reg.Counter("slimfast_http_dedup_replays_total", "Idempotent ingest replays acknowledged without re-ingesting."),
	}
}

// statusLabels maps every HTTP status to its preformatted label so the
// per-request counter increment never formats an integer.
var statusLabels = func() map[int]string {
	m := make(map[int]string, 500)
	for code := 100; code < 600; code++ {
		m[code] = strconv.Itoa(code)
	}
	return m
}()

// statusLabel returns the metric label for an HTTP status.
func statusLabel(code int) string {
	if s, ok := statusLabels[code]; ok {
		return s
	}
	return strconv.Itoa(code)
}

// statusWriter records the response status for metrics and access
// logs. Unwrap exposes the underlying writer so http.ResponseController
// (the body read-deadline in handleObserve) still reaches the real
// connection through the wrapper.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(b)
}

func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

// ridSource mints request IDs: a random per-process prefix plus an
// atomic counter, so IDs are unique across restarts without per-request
// entropy reads.
type ridSource struct {
	prefix string
	n      atomic.Uint64
}

func newRIDSource() *ridSource {
	var b [6]byte
	rand.Read(b[:]) // crypto/rand.Read never fails on supported platforms
	return &ridSource{prefix: hex.EncodeToString(b[:])}
}

func (g *ridSource) next() string {
	return g.prefix + "-" + strconv.FormatUint(g.n.Add(1), 10)
}

// instrumentor bundles what the middleware and route wrappers need:
// the metric families, the component logger, and the ID mint.
type instrumentor struct {
	met  httpMetrics
	log  *slog.Logger
	rids *ridSource
}

func newInstrumentor(reg *obs.Registry, log *slog.Logger) *instrumentor {
	return &instrumentor{met: newHTTPMetrics(reg), log: log, rids: newRIDSource()}
}

// middleware is the outermost layer on both serving surfaces: it
// adopts or mints the X-Request-ID, echoes it on the response, and
// plants the request-scoped logger in the context.
func (ins *instrumentor) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(resilience.RequestIDHeader)
		if id == "" {
			id = ins.rids.next()
		}
		w.Header().Set(resilience.RequestIDHeader, id)
		log := ins.log.With(
			slog.String("request_id", id),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
		)
		next.ServeHTTP(w, r.WithContext(withLogger(resilience.WithRequestID(r.Context(), id), log)))
	})
}

// route wraps one handler with the per-route instrumentation: panic
// recovery into a logged 500 (so one poisoned request cannot take the
// service down), the in-flight gauge, the route/status request counter
// — counting the status the client actually got, the recovered 500
// included — the latency histogram (its child resolved once, here at
// mount), and a debug-level access record on the request-scoped logger.
func (ins *instrumentor) route(route string, h http.HandlerFunc) http.HandlerFunc {
	dur := ins.met.duration.With(route)
	return func(w http.ResponseWriter, r *http.Request) {
		began := time.Now()
		ins.met.inflight.Add(1)
		sw := &statusWriter{ResponseWriter: w}
		log := requestLogger(r.Context(), ins.log)
		defer func() {
			if rec := recover(); rec != nil {
				ins.met.panics.Inc()
				log.Error("PANIC recovered",
					slog.Any("panic", rec),
					slog.String("stack", string(debug.Stack())))
				httpErrorLog(sw, log, http.StatusInternalServerError, "internal error")
			}
			ins.met.inflight.Add(-1)
			status := sw.status
			if status == 0 {
				status = http.StatusOK
			}
			ins.met.requests.With(route, statusLabel(status)).Inc()
			elapsed := time.Since(began)
			dur.Observe(elapsed.Seconds())
			if log.Enabled(r.Context(), slog.LevelDebug) {
				log.LogAttrs(r.Context(), slog.LevelDebug, "request served",
					slog.String("route", route),
					slog.Int("status", status),
					slog.Duration("elapsed", elapsed))
			}
		}()
		h(sw, r)
	}
}
