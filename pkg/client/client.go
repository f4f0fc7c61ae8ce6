// Package client is the Go SDK for the graphd HTTP service. It speaks
// the versioned wire contract defined in pkg/api: every call takes a
// context, sends and receives the api request/response types, and
// surfaces failures as *api.Error values so callers can branch on
// machine-readable codes.
//
//	c, err := client.New("http://localhost:8080",
//		client.WithTimeout(10*time.Second),
//		client.WithRetries(3),
//	)
//	info, err := c.Graphs.Generate(ctx, "demo", api.GenerateRequest{
//		Family: "ring_of_cliques", K: 16, CliqueN: 12,
//	})
//	res, err := c.Graphs.PPR(ctx, "demo", api.PPRRequest{Seeds: []int{0}})
//
// Transient failures — connection errors and 5xx responses — are
// retried with exponential backoff up to the configured attempt budget;
// 4xx responses are never retried. Long-running work goes through
// c.Jobs: Submit enqueues, Wait polls to a terminal state, Result
// decodes the typed payload.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/pkg/api"
)

// Client is a graphd API client. Create with New; the zero value is not
// usable. Clients are safe for concurrent use.
type Client struct {
	baseURL    string
	httpClient *http.Client
	retries    int           // extra attempts after the first
	backoff    time.Duration // first retry delay, doubled per attempt
	maxBackoff time.Duration
	gzipUpload bool
	serverTO   time.Duration // ?timeout_ms= on query endpoints; 0 = server default
	pollEvery  time.Duration // Jobs.Wait poll interval

	// Graphs exposes the graph lifecycle and the synchronous query
	// endpoints; Jobs the async job queue.
	Graphs *GraphsService
	Jobs   *JobsService
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient replaces the underlying *http.Client (default: a
// dedicated client with a 30s overall timeout).
func WithHTTPClient(h *http.Client) Option { return func(c *Client) { c.httpClient = h } }

// WithTimeout sets the underlying HTTP client's overall per-attempt
// timeout. Use request contexts for per-call deadlines.
func WithTimeout(d time.Duration) Option { return func(c *Client) { c.httpClient.Timeout = d } }

// WithRetries sets how many times a failed call is retried beyond the
// first attempt (default 2). 5xx responses are retried for every
// method (graphd's mutating endpoints reject rather than partially
// apply, so a received 5xx is safe to replay); connection errors —
// where the first attempt may have committed before the response was
// lost — are retried only for GETs. 4xx responses and context
// cancellation are never retried.
func WithRetries(n int) Option { return func(c *Client) { c.retries = n } }

// WithBackoff sets the first retry delay (default 100ms); each further
// retry doubles it, capped at max.
func WithBackoff(first, max time.Duration) Option {
	return func(c *Client) { c.backoff, c.maxBackoff = first, max }
}

// WithGzipUpload makes Graphs.Load / Graphs.LoadFile compress edge-list
// bodies with gzip (Content-Encoding: gzip). The server accepts both
// forms; enabling this trades CPU for bandwidth on large graphs.
func WithGzipUpload() Option { return func(c *Client) { c.gzipUpload = true } }

// WithServerTimeout asks the server to bound each synchronous query at
// d (sent as ?timeout_ms=). The server clamps it to its own limits.
func WithServerTimeout(d time.Duration) Option { return func(c *Client) { c.serverTO = d } }

// WithPollInterval sets how often Jobs.Wait polls (default 50ms).
func WithPollInterval(d time.Duration) Option { return func(c *Client) { c.pollEvery = d } }

// New returns a Client for the graphd instance at baseURL (scheme and
// host, e.g. "http://localhost:8080").
func New(baseURL string, opts ...Option) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("client: base URL %q must be scheme://host[:port]", baseURL)
	}
	c := &Client{
		baseURL:    strings.TrimRight(baseURL, "/"),
		httpClient: &http.Client{Timeout: 30 * time.Second},
		retries:    2,
		backoff:    100 * time.Millisecond,
		maxBackoff: 5 * time.Second,
		pollEvery:  50 * time.Millisecond,
	}
	for _, o := range opts {
		o(c)
	}
	c.Graphs = &GraphsService{c: c}
	c.Jobs = &JobsService{c: c}
	return c, nil
}

// BaseURL returns the server address the client was built with.
func (c *Client) BaseURL() string { return c.baseURL }

// Health fetches GET /healthz.
func (c *Client) Health(ctx context.Context) (api.HealthResponse, error) {
	var out api.HealthResponse
	err := c.doJSON(ctx, http.MethodGet, "/healthz", nil, nil, &out)
	return out, err
}

// Metrics fetches the Prometheus text exposition from GET /metrics.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	body, _, err := c.doRaw(ctx, http.MethodGet, "/metrics", nil, nil, "", nil)
	return string(body), err
}

// DebugQueries fetches the server's recent-query trace from
// GET /debug/queries, newest first. An empty list means the trace is
// disabled or no queries have completed yet.
func (c *Client) DebugQueries(ctx context.Context) ([]api.DebugQuery, error) {
	var out api.DebugQueriesResponse
	err := c.doJSON(ctx, http.MethodGet, "/debug/queries", nil, nil, &out)
	return out.Queries, err
}

// v1 joins path segments under the API version prefix, escaping each.
func v1(segments ...string) string {
	var b strings.Builder
	b.WriteString("/" + api.Version)
	for _, s := range segments {
		b.WriteString("/")
		b.WriteString(url.PathEscape(s))
	}
	return b.String()
}

// queryValues returns the shared query parameters for synchronous query
// endpoints (the server-side timeout override, when configured).
func (c *Client) queryValues() url.Values {
	if c.serverTO <= 0 {
		return nil
	}
	q := url.Values{}
	q.Set("timeout_ms", strconv.FormatInt(c.serverTO.Milliseconds(), 10))
	return q
}

// doJSON encodes in (when non-nil), performs the call with retries, and
// decodes the response into out (when non-nil). A request with its own
// encoder (an edge batch, a ppr request) is encoded by it (see
// encodeBody), any other by json.Marshal; a reply with its own decoder
// (the ppr replies) is read into a pooled buffer, since that decoder
// keeps no byte of it, and any other is decoded by json.Unmarshal.
func (c *Client) doJSON(ctx context.Context, method, path string, q url.Values, in, out any) error {
	var body *requestBody
	contentType := ""
	if in != nil {
		var err error
		if body, err = encodeBody(in); err != nil {
			return fmt.Errorf("client: encoding %s %s request: %w", method, path, err)
		}
		defer body.release()
		contentType = "application/json"
	}
	d, direct := out.(interface{ DecodeJSON([]byte) error })
	var buf *[]byte
	if direct {
		buf = replyScratch.Get().(*[]byte)
		defer replyScratch.Put(buf)
	}
	data, _, err := c.doRaw(ctx, method, path, q, body, contentType, buf)
	if err != nil {
		return err
	}
	if direct {
		err = d.DecodeJSON(data)
	} else if out != nil {
		err = json.Unmarshal(data, out)
	}
	if err != nil {
		return fmt.Errorf("client: decoding %s %s response: %w", method, path, err)
	}
	return nil
}

// maxSizedRead bounds the buffer readBody allocates on a response's
// word about its own length.
const maxSizedRead = 8 << 20

// replyScratch holds the buffers doJSON reads directly decoded replies
// into, bodyScratch those it encodes requests into.
var (
	replyScratch = sync.Pool{New: func() any { return new([]byte) }}
	bodyScratch  = sync.Pool{New: func() any { return new([]byte) }}
)

// maxKeptBody bounds the request buffers bodyScratch keeps, so one huge
// edge batch does not pin its size afterwards.
const maxKeptBody = 1 << 20

// maxCopiedBody is the largest encoded body sent from a copy instead of
// its pooled buffer: net/http writes the headers and a *bytes.Reader
// body together, but flushes the headers alone before a body of any
// other type, which costs a small request a second write. Up to its
// default 4 kB write buffer, the copy is the cheaper of the two.
const maxCopiedBody = 4 << 10

// requestBody is what a call sends, replayed from data on every attempt.
// The transport may still be reading a request's body after the call
// has returned, and closes it when it is done, so a body encoded into a
// bodyScratch buffer goes back only when the call and every reader it
// opened have let go of it.
type requestBody struct {
	data []byte
	buf  *[]byte      // the pooled buffer data is in; nil when not pooled
	refs atomic.Int32 // the call's reference and one per open reader
}

// encodeBody encodes in with its own AppendJSON when it has one, into a
// pooled buffer that a body over maxCopiedBody is sent from, else with
// json.Marshal.
func encodeBody(in any) (*requestBody, error) {
	a, direct := in.(interface{ AppendJSON([]byte) ([]byte, error) })
	if !direct {
		data, err := json.Marshal(in)
		return &requestBody{data: data}, err
	}
	buf := bodyScratch.Get().(*[]byte)
	data, err := a.AppendJSON((*buf)[:0])
	if cap(data) <= maxKeptBody {
		*buf = data
	}
	if err != nil {
		bodyScratch.Put(buf)
		return nil, err
	}
	if len(data) <= maxCopiedBody {
		b := &requestBody{data: bytes.Clone(data)}
		bodyScratch.Put(buf)
		return b, nil
	}
	b := &requestBody{data: data, buf: buf}
	b.refs.Store(1)
	return b, nil
}

// open returns a reader over the body, which the transport closes.
func (b *requestBody) open() io.ReadCloser {
	b.refs.Add(1)
	return &bodyReader{Reader: bytes.NewReader(b.data), b: b}
}

// release drops one reference; the last returns a pooled buffer.
func (b *requestBody) release() {
	if b.buf != nil && b.refs.Add(-1) == 0 {
		bodyScratch.Put(b.buf)
	}
}

// bodyReader is one open reader over a requestBody.
type bodyReader struct {
	*bytes.Reader
	b      *requestBody
	closed atomic.Bool
}

// Close releases the reader's reference, once however often it is called.
func (r *bodyReader) Close() error {
	if r.closed.CompareAndSwap(false, true) {
		r.b.release()
	}
	return nil
}

// readBody reads a response body: one of declared length (graphd
// states it on every query reply) into one buffer of that length — *buf
// when buf is set, grown if it must be — any other (chunked, or
// declaring more than maxSizedRead) as it comes.
func readBody(resp *http.Response, buf *[]byte) ([]byte, error) {
	if resp.ContentLength < 0 || resp.ContentLength > maxSizedRead {
		return io.ReadAll(resp.Body)
	}
	if buf == nil {
		buf = new([]byte)
	}
	if int64(cap(*buf)) < resp.ContentLength {
		*buf = make([]byte, resp.ContentLength)
	}
	body := (*buf)[:resp.ContentLength]
	_, err := io.ReadFull(resp.Body, body)
	return body, err
}

// doRaw performs one logical call with the retry/backoff policy: the
// request body is replayed from bytes on each attempt, connection
// errors and 5xx responses back off and retry, anything else returns
// immediately. On HTTP failure the returned error is an *api.Error. A
// sized reply is read into *buf when buf is set (see readBody).
func (c *Client) doRaw(ctx context.Context, method, path string, q url.Values, body *requestBody, contentType string, buf *[]byte) ([]byte, http.Header, error) {
	u := c.baseURL + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	var lastErr error
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			if err := c.sleep(ctx, attempt); err != nil {
				return nil, nil, err
			}
		}
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body.data)
		}
		req, err := http.NewRequestWithContext(ctx, method, u, rd)
		if err != nil {
			return nil, nil, fmt.Errorf("client: %s %s: %w", method, path, err)
		}
		if body != nil && body.buf != nil {
			req.Body = body.open()
			req.GetBody = func() (io.ReadCloser, error) { return body.open(), nil }
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		resp, err := c.httpClient.Do(req)
		if err != nil {
			// Connection-level failure. The caller's context error wins,
			// and only idempotent GETs are replayed: a lost response to a
			// POST may mean the server already committed the work, and
			// replaying it would duplicate jobs or turn a successful
			// graph load into a spurious conflict.
			if ctx.Err() != nil {
				return nil, nil, ctx.Err()
			}
			lastErr = fmt.Errorf("client: %s %s: %w", method, path, err)
			if method != http.MethodGet {
				return nil, nil, lastErr
			}
			continue
		}
		data, readErr := readBody(resp, buf)
		resp.Body.Close()
		if readErr != nil {
			if ctx.Err() != nil {
				return nil, nil, ctx.Err()
			}
			lastErr = fmt.Errorf("client: %s %s: reading response: %w", method, path, readErr)
			continue
		}
		if resp.StatusCode >= 400 {
			apiErr := decodeError(resp.StatusCode, data)
			if resp.StatusCode >= 500 {
				lastErr = apiErr
				continue
			}
			return nil, nil, apiErr
		}
		return data, resp.Header, nil
	}
	return nil, nil, lastErr
}

// doStream performs a GET with the usual connection-error/5xx retry
// policy but hands back the undecoded response body for the caller to
// stream, so large downloads (snapshot export) never buffer in memory.
// The caller must Close the returned body.
func (c *Client) doStream(ctx context.Context, path string) (io.ReadCloser, error) {
	u := c.baseURL + path
	var lastErr error
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			if err := c.sleep(ctx, attempt); err != nil {
				return nil, err
			}
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
		if err != nil {
			return nil, fmt.Errorf("client: GET %s: %w", path, err)
		}
		resp, err := c.httpClient.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			lastErr = fmt.Errorf("client: GET %s: %w", path, err)
			continue
		}
		if resp.StatusCode >= 400 {
			data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
			resp.Body.Close()
			apiErr := decodeError(resp.StatusCode, data)
			if resp.StatusCode >= 500 {
				lastErr = apiErr
				continue
			}
			return nil, apiErr
		}
		return resp.Body, nil
	}
	return nil, lastErr
}

// sleep blocks for the attempt's backoff delay or until ctx is done.
func (c *Client) sleep(ctx context.Context, attempt int) error {
	d := c.backoff << (attempt - 1)
	if d > c.maxBackoff || d <= 0 {
		d = c.maxBackoff
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// decodeError turns a non-2xx response into an *api.Error: the server's
// envelope when the body carries one, otherwise an error synthesized
// from the HTTP status (e.g. a proxy error page).
func decodeError(status int, body []byte) *api.Error {
	var env api.ErrorEnvelope
	if err := json.Unmarshal(body, &env); err == nil && env.Error != nil && env.Error.Code != "" {
		env.Error.Status = status
		return env.Error
	}
	msg := strings.TrimSpace(string(body))
	if msg == "" {
		msg = http.StatusText(status)
	}
	ae := api.Errorf(api.CodeForStatus(status), "%s", msg)
	ae.Status = status
	return ae
}

// IsRetryable reports whether err is the kind of failure worth
// retrying: a 5xx *api.Error (including unavailable backpressure) or a
// connection-level *url.Error. Useful for callers layering their own
// retry loops (e.g. waiting for a daemon to boot). Context
// cancellation and local encode/decode failures are not retryable.
func IsRetryable(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var ae *api.Error
	if errors.As(err, &ae) {
		return ae.Status >= 500 || ae.Code == api.CodeUnavailable
	}
	var ue *url.Error
	return errors.As(err, &ue)
}
