package sweepd

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/faults"
)

// The in-process transport. A loopback fleet's workers run the same
// HTTPClient as networked ones; only the http.RoundTripper underneath
// differs. handlerTransport serves each request by calling the
// coordinator's own handler (NewServer) with no sockets in between, so
// admission, the JSON codec, and the 429 → *OverloadError mapping run
// on one path for every transport. Fault injection composes as
// RoundTrippers stacked on top of it.

// ErrInjectedNetFault is the transport error netFaultTransport surfaces
// for dropped requests and responses.
var ErrInjectedNetFault = errors.New("sweepd: injected network fault")

// loopbackClient speaks the protocol over rt, whose innermost layer is
// a handlerTransport; the host in the URL is never resolved.
func loopbackClient(rt http.RoundTripper) *HTTPClient {
	return &HTTPClient{Base: "http://loopback", HTTP: &http.Client{Transport: rt}}
}

// handlerTransport is an http.RoundTripper that serves every request
// in-process with h.
type handlerTransport struct{ h http.Handler }

// RoundTrip implements http.RoundTripper.
func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ctx := req.Context()
	if req.Body != nil {
		defer req.Body.Close()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rec := &responseBuffer{header: http.Header{}}
	// The handler may annotate its request (mux pattern, path values);
	// a RoundTripper must not modify the caller's.
	t.h.ServeHTTP(rec, req.WithContext(ctx))
	if err := ctx.Err(); err != nil {
		// The caller gave up mid-request (queued at the gate, or stalled
		// in a trickling body): fail as a socket would, not with whatever
		// the handler managed to write.
		return nil, err
	}
	if rec.code == 0 {
		rec.code = http.StatusOK
	}
	return &http.Response{
		Status:        fmt.Sprintf("%d %s", rec.code, http.StatusText(rec.code)),
		StatusCode:    rec.code,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        rec.header,
		Body:          io.NopCloser(&rec.body),
		ContentLength: int64(rec.body.Len()),
		Request:       req,
	}, nil
}

// responseBuffer is the http.ResponseWriter handlerTransport serves
// into.
type responseBuffer struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (r *responseBuffer) Header() http.Header { return r.header }

func (r *responseBuffer) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *responseBuffer) Write(p []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	return r.body.Write(p)
}

// overloadTransport shapes calls with an overload plan (latency ramp,
// slow-loris trickle). The stall delays the request body's first Read,
// not the round trip: the handler reads the body only once the
// admission gate has granted a slot, so a trickling call holds its slot
// for the whole stall — the resource exhaustion slow-loris attacks
// exploit and the queue bound must survive. A shed call is never read,
// so it never draws a stall.
type overloadTransport struct {
	next   http.RoundTripper
	plan   *faults.OverloadPlan
	worker string
	clock  Clock
}

// RoundTrip implements http.RoundTripper.
func (t *overloadTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body == nil {
		return t.next.RoundTrip(req)
	}
	shaped := req.WithContext(req.Context())
	shaped.Body = &stalledBody{ReadCloser: req.Body, t: t, ctx: req.Context()}
	return t.next.RoundTrip(shaped)
}

// stalledBody draws its stall from the plan and sleeps it out before
// the first Read.
type stalledBody struct {
	io.ReadCloser
	t       *overloadTransport
	ctx     context.Context
	started bool
}

func (b *stalledBody) Read(p []byte) (int, error) {
	if !b.started {
		b.started = true
		if stall := b.t.plan.Next(b.t.worker, b.t.clock.Now()); stall > 0 {
			if err := b.t.clock.Sleep(b.ctx, stall); err != nil {
				return 0, err
			}
		}
	}
	return b.ReadCloser.Read(p)
}

// netFaultTransport applies a deterministic network-fault plan
// (internal/faults.NetPlan) per call: drops, delays, duplications, and
// partition windows. A dropped request never reaches the inner
// transport; a dropped response does — the coordinator acts on it while
// the worker sees an error and retries, which is the duplicated-
// delivery path the coordinator's idempotency must absorb.
type netFaultTransport struct {
	next   http.RoundTripper
	plan   *faults.NetPlan
	worker string
	clock  Clock
}

// RoundTrip implements http.RoundTripper.
func (t *netFaultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	v := t.plan.Next(t.worker, t.clock.Now())
	if v.Delay > 0 {
		if err := t.clock.Sleep(req.Context(), v.Delay); err != nil {
			closeBody(req)
			return nil, err
		}
	}
	if v.DropRequest {
		closeBody(req)
		return nil, fmt.Errorf("%w: request dropped", ErrInjectedNetFault)
	}
	var resp *http.Response
	var err error
	if v.Duplicate {
		resp, err = t.deliverTwice(req)
	} else {
		resp, err = t.next.RoundTrip(req)
	}
	if v.DropResponse {
		discardResponse(resp)
		return nil, fmt.Errorf("%w: response dropped", ErrInjectedNetFault)
	}
	return resp, err
}

// deliverTwice sends the same body twice, back to back; the second
// delivery's response is the one the caller reads.
func (t *netFaultTransport) deliverTwice(req *http.Request) (*http.Response, error) {
	var body []byte
	if req.Body != nil {
		var err error
		body, err = io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, err
		}
	}
	send := func() (*http.Response, error) {
		r := req.WithContext(req.Context())
		r.Body = io.NopCloser(bytes.NewReader(body))
		return t.next.RoundTrip(r)
	}
	first, err := send()
	if err != nil {
		return nil, err
	}
	discardResponse(first)
	return send()
}

func closeBody(req *http.Request) {
	if req.Body != nil {
		req.Body.Close()
	}
}

func discardResponse(resp *http.Response) {
	if resp != nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// FleetConfig tunes an in-process worker fleet over the loopback
// transport (handlerTransport).
type FleetConfig struct {
	// Workers is the initial fleet width.
	Workers int
	// Jobs is each worker's concurrent unit count.
	Jobs int
	// NewRunner builds each worker's UnitRunner (workers should not
	// share mutable runner state).
	NewRunner func(workerID string) UnitRunner
	// Plan, when non-nil, injects network faults and schedules kills.
	Plan *faults.NetPlan
	// Overload, when non-nil, shapes every call with latency ramps and
	// slow-loris trickles (overloadTransport).
	Overload *faults.OverloadPlan
	// Gate, when non-nil, fronts the coordinator's handler with
	// admission control and receives the workers' breaker counters.
	Gate *Gate
	// HerdStart releases every initial worker at the same instant — the
	// thundering-herd shape — instead of letting goroutine scheduling
	// stagger them.
	HerdStart bool
	// BatchCompletes, RetryBase, BreakerAfter, and BreakerCooldown are
	// forwarded to each WorkerConfig.
	BatchCompletes  bool
	RetryBase       time.Duration
	BreakerAfter    int
	BreakerCooldown time.Duration
	// Respawn replaces killed workers (fresh ID, fresh kill draw) while
	// the sweep is unfinished, up to MaxRespawns (zero means 4× the
	// fleet width).
	Respawn     bool
	MaxRespawns int
	// Clock supplies time; nil means the wall clock.
	Clock Clock
	// PollMax caps worker idle backoff (forwarded to WorkerConfig).
	PollMax time.Duration
	// Log receives fleet progress lines; nil discards them.
	Log io.Writer
}

// FleetReport summarizes a fleet run.
type FleetReport struct {
	// Spawned counts every worker ever started (initial + respawns);
	// Killed counts chaos kills.
	Spawned, Killed int
	// Breaker aggregates every worker's circuit-breaker counters.
	Breaker BreakerStats
}

// RunFleet drives an in-process fleet against the coordinator until the
// sweep finishes, the coordinator drains, or ctx is cancelled. It is
// the loopback mode behind `ufsim -experiment`, `ufsim serve -loopback`
// and the chaos tests. Once every unit is terminal it cancels the fleet
// rather than wait for idle workers to wake from their poll backoff and
// see Done.
func RunFleet(ctx context.Context, c *Coordinator, cfg FleetConfig) FleetReport {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.MaxRespawns <= 0 {
		cfg.MaxRespawns = 4 * cfg.Workers
	}
	clock := cfg.Clock
	if clock == nil {
		clock = RealClock{}
	}
	logw := cfg.Log
	if logw == nil {
		logw = io.Discard
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	go func() {
		select {
		case <-c.Done():
			cancel()
		case <-ctx.Done():
		}
	}()

	var (
		mu       sync.Mutex
		rep      FleetReport
		respawns int
		wg       sync.WaitGroup
	)
	// start is the herd barrier: with HerdStart every initial worker
	// blocks on it, then all are released by one close — the synchronized
	// stampede the admission gate exists to absorb. Without HerdStart it
	// starts closed and gates nothing.
	start := make(chan struct{})
	if !cfg.HerdStart {
		close(start)
	}
	handler := NewServer(c, ServerConfig{Gate: cfg.Gate, Log: cfg.Log})
	var spawn func(idx int)
	spawn = func(idx int) {
		id := fmt.Sprintf("w%d", idx)
		// Chain, coordinator-outward: the handler (admission gate
		// included), then overload shaping, whose stall lands inside the
		// gate slot, then network faults on the way there, then the
		// worker's own breaker (added by NewWorker).
		var rt http.RoundTripper = handlerTransport{h: handler}
		if cfg.Overload != nil {
			rt = &overloadTransport{next: rt, plan: cfg.Overload, worker: id, clock: clock}
		}
		kill := 0
		if cfg.Plan != nil {
			rt = &netFaultTransport{next: rt, plan: cfg.Plan, worker: id, clock: clock}
			kill = cfg.Plan.KillAfterUnits(id)
		}
		w := NewWorker(WorkerConfig{
			ID: id, Client: loopbackClient(rt), Run: cfg.NewRunner(id),
			Clock: clock, Jobs: cfg.Jobs, PollMax: cfg.PollMax,
			RetryBase: cfg.RetryBase, BatchCompletes: cfg.BatchCompletes,
			BreakerAfter: cfg.BreakerAfter, BreakerCooldown: cfg.BreakerCooldown,
			KillAfterUnits: kill, Log: logw,
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			select {
			case <-start:
			case <-ctx.Done():
				return
			}
			err := w.Run(ctx)
			mu.Lock()
			rep.Breaker.Trips += w.BreakerStats().Trips
			rep.Breaker.FastFails += w.BreakerStats().FastFails
			rep.Breaker.Probes += w.BreakerStats().Probes
			mu.Unlock()
			if cfg.Gate != nil {
				cfg.Gate.RecordBreaker(w.BreakerStats())
			}
			if !errors.Is(err, ErrKilled) {
				return
			}
			mu.Lock()
			rep.Killed++
			done := false
			select {
			case <-c.Done():
				done = true
			default:
			}
			if cfg.Respawn && !done && respawns < cfg.MaxRespawns && ctx.Err() == nil {
				respawns++
				rep.Spawned++
				next := cfg.Workers + respawns
				mu.Unlock()
				fmt.Fprintf(logw, "fleet: respawning after kill as w%d\n", next)
				spawn(next)
				return
			}
			mu.Unlock()
		}()
	}
	mu.Lock()
	for i := 1; i <= cfg.Workers; i++ {
		rep.Spawned++
		spawn(i)
	}
	mu.Unlock()
	if cfg.HerdStart {
		fmt.Fprintf(logw, "fleet: releasing %d worker(s) as one herd\n", cfg.Workers)
		close(start)
	}
	wg.Wait()
	return rep
}
