package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"repro/pkg/api"
)

func writeJSON(w http.ResponseWriter, code int, v any) {
	body, _ := json.Marshal(v) // the api types always marshal
	writeJSONBytes(w, code, body)
}

// reply writes v with status code, or err as its error envelope.
func reply(w http.ResponseWriter, code int, v any, err error) {
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, code, v)
}

// writeJSONBytes writes an encoded body (json.Marshal's or the reply
// codec's, so never newline-terminated) and the newline every JSON reply
// ends in, their length stated: the reader can size its buffer.
func writeJSONBytes(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)+1))
	w.WriteHeader(code)
	w.Write(body)
	io.WriteString(w, "\n")
}

// toAPIError maps an error onto the wire envelope: *api.Error (what
// the store, the pipeline and the job manager return) passes through,
// deadline errors become deadline_exceeded, and everything else is an
// invalid argument (the algorithms' errors are parameter errors by
// construction).
func toAPIError(err error) *api.Error {
	var ae *api.Error
	switch {
	case errors.As(err, &ae):
		return ae
	case errors.Is(err, context.DeadlineExceeded):
		return api.Errorf(api.CodeDeadlineExceeded, "%v", err)
	case errors.Is(err, context.Canceled):
		return api.Errorf(api.CodeCancelled, "%v", err)
	}
	return api.Errorf(api.CodeInvalidArgument, "%v", err)
}

// writeError renders err as the structured {"error":{...}} envelope
// with the HTTP status its code maps to, and returns that status for
// callers that record it (most ignore it).
func writeError(w http.ResponseWriter, err error) int {
	ae := toAPIError(err)
	code := ae.Code.HTTPStatus()
	writeJSON(w, code, api.ErrorEnvelope{Error: ae})
	return code
}

// jsonContentType reports whether the declared request content type is
// JSON. An absent Content-Type is accepted (bare POSTs from simple
// clients); anything declared and not application/json or *+json is
// rejected by decode with 415.
func jsonContentType(r *http.Request) (string, bool) {
	ct := r.Header.Get("Content-Type")
	if ct == "" {
		return "", true
	}
	mt, _, err := mime.ParseMediaType(ct)
	if err != nil {
		return ct, false
	}
	if mt == "application/json" || strings.HasSuffix(mt, "+json") {
		return mt, true
	}
	return mt, false
}

// bodyScratch holds the buffers decode reads request bodies into.
var bodyScratch = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// decode is the shared request pipeline for JSON endpoints: enforce the
// content type, read the (MaxBytes-capped) body, strict-decode into
// req, fill defaults, validate. On failure it writes the error response
// and returns false; handlers just return.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, req api.Request) bool {
	if ct, ok := jsonContentType(r); !ok {
		writeError(w, api.Errorf(api.CodeUnsupportedMediaType,
			"content type %q is not JSON; send application/json", ct).
			WithDetail("content_type", ct))
		return false
	}
	// One pooled buffer grown once: the declared length (as far as the
	// MaxBytes cap lets it through; none for a chunked body) plus the
	// slack ReadFrom wants. The decoders keep no byte of it.
	body := bodyScratch.Get().(*bytes.Buffer)
	defer func() {
		if body.Cap() <= maxKeptBytes {
			bodyScratch.Put(body)
		}
	}()
	body.Reset()
	body.Grow(int(max(min(r.ContentLength, s.cfg.MaxBodyBytes), 0)) + bytes.MinRead)
	if _, err := body.ReadFrom(r.Body); err != nil {
		writeError(w, api.Errorf(api.CodeInvalidArgument, "reading body: %v", err))
		return false
	}
	if body.Len() > 0 {
		if err := strictUnmarshal(body.Bytes(), req); err != nil {
			writeError(w, api.Errorf(api.CodeInvalidArgument, "%v", err))
			return false
		}
	}
	req.Normalize()
	if err := req.Validate(); err != nil {
		writeError(w, err)
		return false
	}
	return true
}

// mustParams marshals the post-Normalize request into the canonical
// cache-key payload. Marshaling an api request type cannot fail; the
// fallback keeps the handler total.
func mustParams(req any) []byte {
	out, err := json.Marshal(req)
	if err != nil {
		return []byte(fmt.Sprintf("%+v", req))
	}
	return out
}

// pprParams is mustParams for a ppr or ppr:batch request by its own
// encoder, without reflection; a decoded request's floats always encode.
func pprParams(req *api.PPRRequest) []byte {
	params, _ := req.AppendJSON(make([]byte, 0, 64+8*len(req.Seeds)))
	return params
}

// capReader errors (rather than reporting EOF) once more than
// `remaining` bytes have been read, failing oversized streams loudly.
// The error is a plain one: graph.ReadEdgeList embeds its text in the
// message of the reply.
type capReader struct {
	r         io.Reader
	remaining int64
}

func (c *capReader) Read(p []byte) (int, error) {
	if c.remaining <= 0 {
		return 0, errors.New("decompressed body too large")
	}
	if int64(len(p)) > c.remaining {
		p = p[:c.remaining]
	}
	n, err := c.r.Read(p)
	c.remaining -= int64(n)
	return n, err
}
