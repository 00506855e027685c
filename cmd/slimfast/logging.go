// Structured logging for the serving subcommands: component-scoped
// log/slog loggers selected by -log-format, a request-scoped logger
// carried in the request context (stamped with the request ID by the
// tracing middleware), and the optional pprof side server.
//
// Two output streams coexist on purpose. The machine-readable protocol
// lines ("# listening on ...", "# restored ...", "# shutdown ...")
// stay bare fmt.Fprintf writes — scripts and tests grep them — while
// diagnostics (panics, dropped response writes, per-request access
// records) go through slog so operators can switch the whole
// diagnostic stream to JSON with one flag.
package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// logFormats validates a -log-format value.
func validLogFormat(format string) error {
	switch format {
	case "", "text", "json":
		return nil
	}
	return fmt.Errorf("unknown -log-format %q (want text or json)", format)
}

// newComponentLogger builds the diagnostic logger for one serving
// component ("serve", "router", "pprof"). The empty format means text.
func newComponentLogger(format string, w io.Writer, component string) *slog.Logger {
	var h slog.Handler
	if format == "json" {
		h = slog.NewJSONHandler(w, nil)
	} else {
		h = slog.NewTextHandler(w, nil)
	}
	return slog.New(h).With(slog.String("component", component))
}

// loggerKey carries the request-scoped logger in a request context.
type loggerKey struct{}

// withLogger returns ctx carrying l as the request-scoped logger.
func withLogger(ctx context.Context, l *slog.Logger) context.Context {
	return context.WithValue(ctx, loggerKey{}, l)
}

// requestLogger resolves the request-scoped logger (request ID, method
// and path already attached by the middleware), falling back to the
// component logger, and — for bare handlers exercised outside the
// middleware, as tests do — to a discard logger, never nil.
func requestLogger(ctx context.Context, fallback *slog.Logger) *slog.Logger {
	if l, ok := ctx.Value(loggerKey{}).(*slog.Logger); ok {
		return l
	}
	if fallback != nil {
		return fallback
	}
	return slog.New(discardHandler{})
}

// discardHandler is a slog.Handler that drops everything; the fallback
// of last resort so logging is never a nil dereference.
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }

// startPprof serves net/http/pprof on its own mux at addr — a side
// server, so the profiling surface never mounts on the public API by
// accident. It returns the resolved address (addr may be ":0").
func startPprof(addr string, stdout io.Writer) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go srv.Serve(ln)
	// Machine-readable like "# listening on": with -pprof :0 this is
	// how a script finds the profiling port.
	fmt.Fprintf(stdout, "# pprof listening on %s\n", ln.Addr())
	return ln.Addr().String(), nil
}
