package sweepd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// ServerConfig tunes the HTTP front of the coordinator.
type ServerConfig struct {
	// Gate, when set, is acquired around every handler: requests past
	// the endpoint's inflight cap queue briefly, then are shed as
	// 429 + Retry-After. Attach the same gate to the coordinator
	// (AttachGate) so shedding also stretches the lease poll hints.
	Gate *Gate
	// Log receives panic stacks from recovered handlers; nil discards
	// them (the client still gets its 500 either way).
	Log io.Writer
}

// NewServer exposes the coordinator over HTTP/JSON: the protocol POSTs
// plus a human-facing GET /v1/status. Handlers are thin — all semantics
// (reaping, fencing, idempotency) live in the Coordinator — and they are
// the only way in: in-process fleets call this same handler. Every
// handler is wrapped in panic recovery and, when cfg.Gate is set,
// admission control.
func NewServer(c *Coordinator, cfg ServerConfig) http.Handler {
	log := cfg.Log
	if log == nil {
		log = io.Discard
	}
	mux := http.NewServeMux()
	handle := func(pattern, endpoint string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, gated(cfg.Gate, endpoint, h))
	}
	handle("POST /v1/lease", EndpointLease, jsonHandler(c.Lease))
	handle("POST /v1/heartbeat", EndpointHeartbeat, jsonHandler(c.Heartbeat))
	handle("POST /v1/complete", EndpointComplete, jsonHandler(c.Complete))
	handle("POST /v1/complete-batch", EndpointComplete, jsonHandler(c.CompleteBatch))
	handle("POST /v1/release", EndpointRelease, jsonHandler(c.Release))
	handle("GET /v1/status", EndpointStatus, func(w http.ResponseWriter, r *http.Request) {
		data, err := c.StatusJSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(append(data, '\n'))
	})
	return recovered(log, mux)
}

// recovered turns a handler panic into a 500 instead of a killed
// connection, logging the stack — masking it would turn every
// coordinator bug into an undiagnosable transport error.
func recovered(log io.Writer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				fmt.Fprintf(log, "sweepd: panic serving %s %s: %v\n%s\n", r.Method, r.URL.Path, rec, debug.Stack())
				http.Error(w, "internal server error", http.StatusInternalServerError)
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// shedBody is the machine-readable half of a 429: the Retry-After
// header only has whole-second resolution, so the body carries the
// precise hint for HTTPClient to rebuild the OverloadError from.
type shedBody struct {
	Error        string `json:"error"`
	RetryAfterMS int64  `json:"retry_after_ms"`
}

// gated wraps a handler in gate admission; shed requests get
// 429 + Retry-After without ever touching the coordinator.
func gated(g *Gate, endpoint string, next http.HandlerFunc) http.HandlerFunc {
	if g == nil {
		return next
	}
	return func(w http.ResponseWriter, r *http.Request) {
		release, err := g.Acquire(r.Context(), endpoint)
		if err != nil {
			oe, shed := err.(*OverloadError)
			if !shed {
				// The client gave up while queued; the connection is
				// already dead, so any status would go nowhere.
				return
			}
			// Ceil to whole seconds for the header (0 would mean "now",
			// defeating the point); exact hint goes in the body.
			secs := int64((oe.RetryAfter + time.Second - 1) / time.Second)
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(shedBody{Error: "overloaded", RetryAfterMS: oe.RetryAfter.Milliseconds()})
			return
		}
		defer release()
		next(w, r)
	}
}

// jsonHandler decodes one request type, applies the coordinator method,
// and encodes the response.
func jsonHandler[Req, Resp any](fn func(Req) Resp) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req Req
		body := http.MaxBytesReader(w, r.Body, 16<<20)
		if err := json.NewDecoder(body).Decode(&req); err != nil {
			http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(fn(req)); err != nil {
			// The response is already partially written; nothing
			// recoverable — the client's decode error stands in for us.
			return
		}
	}
}

// HTTPTimeouts bounds how long the coordinator's listener tolerates
// slow clients. The zero value of any field takes its default; the
// defaults assume workers on a LAN, not the open internet.
type HTTPTimeouts struct {
	// ReadHeader caps how long a connection may dribble its request
	// line and headers — the classic slow-loris hold; zero means 5s.
	ReadHeader time.Duration
	// Read caps the whole request (headers + body); zero means 1m.
	Read time.Duration
	// Write caps writing the response; zero means 1m.
	Write time.Duration
	// Idle caps how long a keep-alive connection may sit between
	// requests; zero means 2m.
	Idle time.Duration
}

func (t HTTPTimeouts) withDefaults() HTTPTimeouts {
	if t.ReadHeader <= 0 {
		t.ReadHeader = 5 * time.Second
	}
	if t.Read <= 0 {
		t.Read = time.Minute
	}
	if t.Write <= 0 {
		t.Write = time.Minute
	}
	if t.Idle <= 0 {
		t.Idle = 2 * time.Minute
	}
	return t
}

// NewHTTPServer builds the coordinator's http.Server with every slow-
// client timeout set. A bare &http.Server{} holds a slow-loris
// connection (and its goroutine, and its admission slot) forever; this
// is the only constructor `ufsim serve` is allowed to use.
func NewHTTPServer(addr string, h http.Handler, t HTTPTimeouts) *http.Server {
	t = t.withDefaults()
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: t.ReadHeader,
		ReadTimeout:       t.Read,
		WriteTimeout:      t.Write,
		IdleTimeout:       t.Idle,
	}
}

// HTTPClient speaks the coordinator protocol; it is what
// `ufsim worker -coordinator URL` runs on, and, over an in-process
// transport, what RunFleet's workers run on.
type HTTPClient struct {
	// Base is the coordinator URL, e.g. "http://sweep-host:7733".
	Base string
	// HTTP is the underlying client; nil uses a 30s-timeout default.
	HTTP *http.Client
}

func (h *HTTPClient) client() *http.Client {
	if h.HTTP != nil {
		return h.HTTP
	}
	return &http.Client{Timeout: 30 * time.Second}
}

// post delivers one JSON request and decodes the JSON response. A 429
// comes back as an *OverloadError carrying the server's retry hint.
func (h *HTTPClient) post(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("sweepd: encoding %s request: %w", path, err)
	}
	url := strings.TrimRight(h.Base, "/") + path
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := h.client().Do(req)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode == http.StatusTooManyRequests {
		return overloadFromResponse(path, resp)
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("sweepd: %s: %s: %s", path, resp.Status, strings.TrimSpace(string(msg)))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// overloadFromResponse rebuilds the gate's OverloadError from a 429:
// the JSON body's millisecond hint when present, the Retry-After header
// otherwise, a second as the floor of last resort.
func overloadFromResponse(path string, resp *http.Response) error {
	ra := time.Second
	var sb shedBody
	if err := json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&sb); err == nil && sb.RetryAfterMS > 0 {
		ra = time.Duration(sb.RetryAfterMS) * time.Millisecond
	} else if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
		ra = time.Duration(secs) * time.Second
	}
	return &OverloadError{Endpoint: strings.TrimPrefix(path, "/v1/"), RetryAfter: ra}
}

// Lease implements Client.
func (h *HTTPClient) Lease(ctx context.Context, req LeaseRequest) (LeaseResponse, error) {
	var resp LeaseResponse
	err := h.post(ctx, "/v1/lease", req, &resp)
	return resp, err
}

// Heartbeat implements Client.
func (h *HTTPClient) Heartbeat(ctx context.Context, req HeartbeatRequest) (HeartbeatResponse, error) {
	var resp HeartbeatResponse
	err := h.post(ctx, "/v1/heartbeat", req, &resp)
	return resp, err
}

// Complete implements Client.
func (h *HTTPClient) Complete(ctx context.Context, req CompleteRequest) (CompleteResponse, error) {
	var resp CompleteResponse
	err := h.post(ctx, "/v1/complete", req, &resp)
	return resp, err
}

// CompleteBatch implements Client.
func (h *HTTPClient) CompleteBatch(ctx context.Context, req CompleteBatchRequest) (CompleteBatchResponse, error) {
	var resp CompleteBatchResponse
	err := h.post(ctx, "/v1/complete-batch", req, &resp)
	return resp, err
}

// Release implements Client.
func (h *HTTPClient) Release(ctx context.Context, req ReleaseRequest) (ReleaseResponse, error) {
	var resp ReleaseResponse
	err := h.post(ctx, "/v1/release", req, &resp)
	return resp, err
}
