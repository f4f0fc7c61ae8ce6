package service

import (
	"context"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// The server's shared HTTP stack is telemetry → MaxBytes → router, so
// every handler runs with a capped body, and every response carries a
// request ID and is counted (and optionally logged) on the way out. The
// per-request query deadline is no layer: the pipeline arms it only for
// a query that waits (pipeline.go).

// withMaxBytes caps every request body at the configured limit. JSON
// decoding and edge-list ingestion both read through this cap, so no
// handler needs its own wrapping. Binary snapshot imports get the same
// 4x headroom the gzip-decompression cap uses: a GSNAP encoding is a
// few times larger than the text edge list of the same graph, and an
// export must remain importable under the default config.
func (s *Server) withMaxBytes(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Body != nil {
			limit := s.cfg.MaxBodyBytes
			if r.Method == http.MethodPut && strings.HasSuffix(r.URL.Path, "/snapshot") {
				limit = 4 * s.cfg.MaxBodyBytes
			}
			r.Body = http.MaxBytesReader(w, r.Body, limit)
		}
		next.ServeHTTP(w, r)
	})
}

// requestIDHeader is honored inbound (when sane) and always set on the
// response, so callers can correlate replies, access-log lines and
// /debug/queries entries.
const requestIDHeader = "X-Request-Id"

type ctxKey int

const requestIDKey ctxKey = iota

// RequestIDFrom returns the request ID carried by a request context,
// or "" outside a request (or with telemetry disabled).
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// validRequestID accepts inbound IDs that are short and printable
// ASCII — anything else (empty, oversized, control bytes that could
// corrupt log lines) is replaced by a generated ID.
func validRequestID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		if id[i] <= ' ' || id[i] > '~' {
			return false
		}
	}
	return true
}

// nextRequestID mints a process-unique request ID: a per-boot random
// prefix plus a monotone counter.
func (s *Server) nextRequestID() string {
	return s.ridPrefix + strconv.FormatUint(s.ridCounter.Add(1), 16)
}

// withTelemetry is the outermost layer and the single place the stack
// touches the wall clock for a request: it resolves the request ID,
// wraps the response in the one shared statusWriter (status + bytes
// written), records the per-route metrics, and emits the structured
// access-log line. With DisableTelemetry set it degrades to bare
// metrics instrumentation with zero added allocations.
func (s *Server) withTelemetry(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		if !s.cfg.DisableTelemetry {
			id := r.Header.Get(requestIDHeader)
			if !validRequestID(id) {
				id = s.nextRequestID()
			}
			sw.Header().Set(requestIDHeader, id)
			r = r.WithContext(context.WithValue(r.Context(), requestIDKey, id))
		}
		next.ServeHTTP(sw, r)
		pattern := r.Pattern // set by the mux on the request it was handed: this one
		if pattern == "" {
			pattern = "unmatched"
		}
		dur := time.Since(start)
		s.metrics.ObserveRequest(pattern, sw.code, dur)
		if s.accessLog != nil {
			s.accessLog.LogAttrs(r.Context(), slog.LevelInfo, "request",
				slog.String("id", RequestIDFrom(r.Context())),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", sw.code),
				slog.Int64("bytes", sw.bytes),
				slog.Duration("dur", dur.Round(time.Microsecond)),
			)
		}
	})
}

// statusWriter records the status code and the response bytes actually
// written (not r.ContentLength, which is -1 for chunked or absent
// request bodies and never described the response anyway).
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int64
}

// Unwrap lets http.ResponseController reach the connection's writer.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}
