package sweepd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
)

// TestHTTPServerSlowLorisClosed: NewHTTPServer's ReadHeaderTimeout
// evicts a connection that dribbles its headers forever, and the server
// keeps serving honest clients afterward. httptest.Server builds its
// own http.Server, so this test runs the real constructor on a real
// listener — the exact configuration `ufsim serve` uses.
func TestHTTPServerSlowLorisClosed(t *testing.T) {
	c, err := NewCoordinator(CoordinatorConfig{}, testUnits(1))
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := NewHTTPServer("", NewServer(c, ServerConfig{}), HTTPTimeouts{
		ReadHeader: 150 * time.Millisecond,
	})
	go srv.Serve(ln)
	defer srv.Close()

	// The loris: open a connection, send half a request line, then hold.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("POST /v1/lease HTTP/1.1\r\nHost: x\r\n")); err != nil {
		t.Fatalf("writing partial headers: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	n, err := conn.Read(make([]byte, 1))
	if err == nil {
		t.Fatalf("read %d bytes; expected the server to close the dribbling connection", n)
	}

	// An honest request on a fresh connection still gets served.
	resp, err := http.Get("http://" + ln.Addr().String() + "/v1/status")
	if err != nil {
		t.Fatalf("healthy request after loris eviction: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status after loris eviction: %s", resp.Status)
	}
}

// TestHTTPTimeoutsDefaults: the zero HTTPTimeouts value resolves to the
// documented defaults, and NewHTTPServer installs all four.
func TestHTTPTimeoutsDefaults(t *testing.T) {
	srv := NewHTTPServer(":0", http.NotFoundHandler(), HTTPTimeouts{})
	if srv.ReadHeaderTimeout != 5*time.Second || srv.ReadTimeout != time.Minute ||
		srv.WriteTimeout != time.Minute || srv.IdleTimeout != 2*time.Minute {
		t.Fatalf("default timeouts: header=%v read=%v write=%v idle=%v",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.WriteTimeout, srv.IdleTimeout)
	}
}

// TestHandlerPanicBecomes500: a panicking handler yields a 500 with the
// stack logged, not a killed connection.
func TestHandlerPanicBecomes500(t *testing.T) {
	var mu sync.Mutex
	var logBuf bytes.Buffer
	locked := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return logBuf.Write(p)
	})
	h := recovered(locked, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("coordinator bug")
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/lease")
	if err != nil {
		t.Fatalf("request to panicking handler: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking handler answered %s, want 500", resp.Status)
	}
	mu.Lock()
	logged := logBuf.String()
	mu.Unlock()
	if !strings.Contains(logged, "panic serving GET /v1/lease: coordinator bug") {
		t.Fatalf("panic not identified in log: %q", logged)
	}
	if !strings.Contains(logged, "goroutine") {
		t.Fatalf("no stack in panic log: %q", logged)
	}
}

// writerFunc adapts a function to io.Writer.
type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestHTTP429PropagatesOverloadError: a shed request comes back as
// 429 + Retry-After + JSON hint, and HTTPClient rebuilds the gate's
// *OverloadError from it — over a real listener and over the in-process
// transport alike, so worker backoff cannot tell the transports apart.
func TestHTTP429PropagatesOverloadError(t *testing.T) {
	for _, transport := range []string{"listener", "in-process"} {
		t.Run(transport, func(t *testing.T) {
			c, err := NewCoordinator(CoordinatorConfig{}, testUnits(2))
			if err != nil {
				t.Fatalf("NewCoordinator: %v", err)
			}
			gate := NewGate(GateConfig{Default: GateLimits{Inflight: 1, Queue: 1, QueueWait: time.Minute}})
			h := NewServer(c, ServerConfig{Gate: gate})
			base, httpc := "http://loopback", &http.Client{Transport: handlerTransport{h: h}}
			if transport == "listener" {
				srv := httptest.NewServer(h)
				defer srv.Close()
				base, httpc = srv.URL, http.DefaultClient
			}

			// Saturate lease admission from inside: hold the slot and the queue.
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			rel, err := gate.Acquire(ctx, EndpointLease)
			if err != nil {
				t.Fatalf("holding the slot: %v", err)
			}
			defer rel()
			go gate.Acquire(ctx, EndpointLease)
			waitForQueued(t, gate, EndpointLease, 1)

			// Raw HTTP first: the response shape is part of the protocol.
			resp, err := httpc.Post(base+"/v1/lease", "application/json", strings.NewReader(`{"worker":"w","max":1}`))
			if err != nil {
				t.Fatalf("POST /v1/lease: %v", err)
			}
			if resp.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("shed request answered %s, want 429", resp.Status)
			}
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After header")
			}
			var sb shedBody
			if err := json.NewDecoder(resp.Body).Decode(&sb); err != nil || sb.RetryAfterMS <= 0 {
				t.Fatalf("shed body %+v (err %v), want a positive retry_after_ms", sb, err)
			}
			resp.Body.Close()

			// Now through HTTPClient: the typed error round-trips.
			hc := &HTTPClient{Base: base, HTTP: httpc}
			_, err = hc.Lease(context.Background(), LeaseRequest{Worker: "w", Max: 1})
			var oe *OverloadError
			if !errors.As(err, &oe) {
				t.Fatalf("HTTPClient.Lease returned %v, want *OverloadError", err)
			}
			if oe.Endpoint != "lease" {
				t.Fatalf("rebuilt endpoint %q, want lease", oe.Endpoint)
			}
			// Queue is saturated, so the server hint is 1.25×QueueWait; the
			// client must carry the body's precise value, not the coarse header.
			if want := time.Duration(sb.RetryAfterMS) * time.Millisecond; oe.RetryAfter != want {
				t.Fatalf("rebuilt RetryAfter %v, want the body hint %v", oe.RetryAfter, want)
			}

			// Heartbeat is a different endpoint and stays open.
			if _, err := hc.Heartbeat(context.Background(), HeartbeatRequest{Worker: "w"}); err != nil {
				t.Fatalf("heartbeat while lease overloaded: %v", err)
			}
		})
	}
}

// bodyRecorder wraps a handler and keeps every request body it serves.
type bodyRecorder struct {
	next   http.Handler
	mu     sync.Mutex
	bodies [][]byte
}

func (b *bodyRecorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	b.mu.Lock()
	b.bodies = append(b.bodies, body)
	b.mu.Unlock()
	r.Body = io.NopCloser(bytes.NewReader(body))
	b.next.ServeHTTP(w, r)
}

// stallClock never sleeps; it records, per Sleep, how many bodies rec
// had finished reading, so a stall served inside delivery i's body read
// records i.
type stallClock struct {
	RealClock
	rec    *bodyRecorder
	stalls []int
}

func (s *stallClock) Sleep(context.Context, time.Duration) error {
	s.rec.mu.Lock()
	defer s.rec.mu.Unlock()
	s.stalls = append(s.stalls, len(s.rec.bodies))
	return nil
}

// TestNetFaultTransportCompleteOnce drives one Complete through the
// net-fault transport. A duplicate verdict delivers byte-identical
// bodies twice and the coordinator merges once, acking the second
// delivery idempotently, and a stalled duplicate stalls inside each
// delivery's body read; a dropped response still merges the unit while
// the caller sees ErrInjectedNetFault.
func TestNetFaultTransportCompleteOnce(t *testing.T) {
	for _, tc := range []struct {
		name       string
		cfg        faults.NetConfig
		deliveries int
		stalls     []int
	}{
		{"duplicate", faults.NetConfig{DuplicateProb: 1}, 2, nil},
		{"duplicate-stalled", faults.NetConfig{DuplicateProb: 1, TrickleProb: 1, TrickleFor: time.Hour}, 2, []int{0, 1}},
		{"dropped-response", faults.NetConfig{DropResponseProb: 1}, 1, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewCoordinator(CoordinatorConfig{}, testUnits(1))
			if err != nil {
				t.Fatalf("NewCoordinator: %v", err)
			}
			lease := c.Lease(LeaseRequest{Worker: "w", Max: 1})
			if len(lease.Units) != 1 {
				t.Fatalf("lease granted %d units, want 1", len(lease.Units))
			}
			lu := lease.Units[0]
			rec := &bodyRecorder{next: NewServer(c, ServerConfig{})}
			plan := faults.NewNetPlan(tc.cfg, 1)
			clk := &stallClock{rec: rec}
			client := loopbackClient(&netFaultTransport{
				next: handlerTransport{h: rec}, plan: plan, worker: "w", clock: clk,
			})

			resp, err := client.Complete(context.Background(), CompleteRequest{
				Worker: "w", Unit: lu.Unit.ID, Epoch: lu.Epoch, OK: true, Result: "ok",
			})
			if tc.cfg.DropResponseProb > 0 {
				if !errors.Is(err, ErrInjectedNetFault) {
					t.Fatalf("dropped response returned %v, want ErrInjectedNetFault", err)
				}
			} else if err != nil || !resp.Accepted {
				t.Fatalf("duplicated Complete = %+v, %v; want an accepted ack", resp, err)
			}

			if len(rec.bodies) != tc.deliveries {
				t.Fatalf("coordinator received %d deliveries, want %d", len(rec.bodies), tc.deliveries)
			}
			for i, body := range rec.bodies {
				if !bytes.Equal(body, rec.bodies[0]) {
					t.Fatalf("delivery %d body %q differs from the first %q", i, body, rec.bodies[0])
				}
			}
			if !slices.Equal(clk.stalls, tc.stalls) {
				t.Fatalf("stalls served inside deliveries %v, want %v", clk.stalls, tc.stalls)
			}
			st := c.Snapshot()
			if st.Done != 1 || st.Units[0].Completions != 1 {
				t.Fatalf("unit merged %d times (done=%d), want exactly once", st.Units[0].Completions, st.Done)
			}
		})
	}
}

// hintClock records every Sleep a worker performs without actually
// sleeping, so a test can inspect how the worker honored a hint.
type hintClock struct {
	sleeps chan time.Duration
}

func (h *hintClock) Now() time.Time { return time.Now() }

func (h *hintClock) Sleep(ctx context.Context, d time.Duration) error {
	select {
	case h.sleeps <- d:
	default:
	}
	return ctx.Err()
}

// TestWorkerHonorsRetryAfterOverHTTP: an idle coordinator's lease hint
// (RetryAfterMillis) survives the HTTP round trip and the worker sleeps
// within [hint, 1.5×hint] — the stretch band that keeps a shared hint
// from re-synchronizing the herd.
func TestWorkerHonorsRetryAfterOverHTTP(t *testing.T) {
	const ttl = 3 * time.Second
	c, err := NewCoordinator(CoordinatorConfig{LeaseTTL: ttl}, testUnits(2))
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	// Another worker holds every unit, so a lease grants nothing and
	// hints TTL/3 — the reap cadence.
	if got := c.Lease(LeaseRequest{Worker: "hog", Max: 2}); len(got.Units) != 2 {
		t.Fatalf("hog leased %d units, want 2", len(got.Units))
	}
	srv := httptest.NewServer(NewServer(c, ServerConfig{}))
	defer srv.Close()

	clk := &hintClock{sleeps: make(chan time.Duration, 1)}
	w := NewWorker(WorkerConfig{
		ID:     "patient",
		Client: &HTTPClient{Base: srv.URL},
		Run: func(ctx context.Context, u Unit, progress func(string)) UnitResult {
			t.Error("no unit should be grantable")
			return UnitResult{}
		},
		Clock:   clk,
		PollMax: 10 * time.Second, // far above the hint: the hint must win
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()

	var slept time.Duration
	select {
	case slept = <-clk.sleeps:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never slept on the idle hint")
	}
	cancel()
	<-done

	hint := ttl / 3
	if slept < hint || slept > hint+hint/2 {
		t.Fatalf("worker slept %v on a %v hint, want within [hint, 1.5×hint]", slept, hint)
	}
}

// TestConcurrentStatusUnderTraffic: GET /v1/status races protocol
// traffic (with the gate attached, so the overload section is built
// too) without data races or torn snapshots. Meaningful under -race.
func TestConcurrentStatusUnderTraffic(t *testing.T) {
	c, err := NewCoordinator(CoordinatorConfig{}, testUnits(24))
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	gate := NewGate(GateConfig{Default: GateLimits{Inflight: 8}})
	c.AttachGate(gate)
	srv := httptest.NewServer(NewServer(c, ServerConfig{Gate: gate}))
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// Status hammerers run until the sweep finishes.
	var statusReads atomic.Int64
	stop := make(chan struct{})
	var pollers sync.WaitGroup
	for i := 0; i < 4; i++ {
		pollers.Add(1)
		go func() {
			defer pollers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(srv.URL + "/v1/status")
				if err != nil {
					continue
				}
				var st Status
				err = json.NewDecoder(resp.Body).Decode(&st)
				resp.Body.Close()
				if err != nil {
					t.Errorf("torn status snapshot: %v", err)
					return
				}
				if st.Overload == nil {
					t.Error("status without overload section while gate attached")
					return
				}
				statusReads.Add(1)
			}
		}()
	}

	var mu sync.Mutex
	exec := map[UnitID]int{}
	var workers sync.WaitGroup
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("w%d", i)
		w := NewWorker(WorkerConfig{
			ID: id, Client: &HTTPClient{Base: srv.URL},
			Run: okRunner(&mu, exec)(id), Jobs: 2,
		})
		workers.Add(1)
		go func() {
			defer workers.Done()
			if err := w.Run(ctx); err != nil {
				t.Errorf("worker %s: %v", id, err)
			}
		}()
	}
	workers.Wait()
	close(stop)
	pollers.Wait()

	select {
	case <-c.Done():
	default:
		t.Fatalf("sweep not done: %+v", c.Snapshot())
	}
	if statusReads.Load() == 0 {
		t.Fatal("no status snapshot was read during traffic")
	}
}
