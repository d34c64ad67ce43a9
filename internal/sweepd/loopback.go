package sweepd

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
)

// The in-process transport. A loopback fleet's workers run the same
// HTTPClient as networked ones; only the http.RoundTripper underneath
// differs. handlerTransport serves each request by calling the
// coordinator's own handler (NewServer) with no sockets in between, so
// admission, the JSON codec, and the 429 → *OverloadError mapping run
// on one path for every transport. Fault injection is one RoundTripper
// on top of it (netFaultTransport).

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

// netFaultTransport applies a deterministic network-fault plan
// (internal/faults.NetPlan) per call, in order: a dead worker's call
// is dropped; a partition or drop loses the request; a Delay holds it
// before delivery; a Stall holds it inside the coordinator's admission
// gate. A dropped response is delivered first — the coordinator acts on
// it while the worker sees an error and retries, which is the
// duplicated-delivery path the coordinator's idempotency must absorb.
type netFaultTransport struct {
	next   http.RoundTripper
	plan   *faults.NetPlan
	worker string
	clock  Clock
	// dead marks a crashed worker: no call of its reaches the
	// coordinator any more.
	dead atomic.Bool
}

// RoundTrip implements http.RoundTripper.
func (t *netFaultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if t.dead.Load() {
		closeBody(req)
		return nil, fmt.Errorf("%w: worker is dead", ErrInjectedNetFault)
	}
	v := t.plan.Next(t.worker, t.clock.Now())
	if v.DropRequest {
		closeBody(req)
		return nil, fmt.Errorf("%w: request dropped", ErrInjectedNetFault)
	}
	if v.Delay > 0 {
		if err := t.clock.Sleep(req.Context(), v.Delay); err != nil {
			closeBody(req)
			return nil, err
		}
	}
	var resp *http.Response
	var err error
	if v.Duplicate {
		resp, err = t.deliverTwice(req, v.Stall)
	} else {
		resp, err = t.next.RoundTrip(t.stalled(req, req.Body, v.Stall))
	}
	if v.DropResponse {
		discardResponse(resp)
		return nil, fmt.Errorf("%w: response dropped", ErrInjectedNetFault)
	}
	return resp, err
}

// stalled returns req carrying body, whose first Read first sleeps out
// stall. The handler reads the body only once the admission gate has
// granted a slot, so a stalled call holds its slot for the whole stall
// — the resource exhaustion slow-loris attacks exploit and the queue
// bound must survive — and a shed call is never read, so never stalls.
func (t *netFaultTransport) stalled(req *http.Request, body io.ReadCloser, stall time.Duration) *http.Request {
	r := req.WithContext(req.Context())
	r.Body = body
	if stall > 0 && body != nil {
		r.Body = &stalledBody{ReadCloser: body, ctx: req.Context(), clock: t.clock, stall: stall}
	}
	return r
}

// stalledBody sleeps out its stall before the first Read.
type stalledBody struct {
	io.ReadCloser
	ctx   context.Context
	clock Clock
	stall time.Duration
}

func (b *stalledBody) Read(p []byte) (int, error) {
	if d := b.stall; d > 0 {
		b.stall = 0
		if err := b.clock.Sleep(b.ctx, d); err != nil {
			return 0, err
		}
	}
	return b.ReadCloser.Read(p)
}

// deliverTwice sends the same body twice, back to back, each delivery
// stalling inside the gate; the second delivery's response is the one
// the caller reads.
func (t *netFaultTransport) deliverTwice(req *http.Request, stall time.Duration) (*http.Response, error) {
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
		return t.next.RoundTrip(t.stalled(req, io.NopCloser(bytes.NewReader(body)), stall))
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
	// Plan, when non-nil, injects network faults and stalls and
	// schedules kills.
	Plan *faults.NetPlan
	// Gate, when non-nil, fronts the coordinator's handler with
	// admission control and receives the workers' breaker counters.
	Gate *Gate
	// HerdStart releases every initial worker at the same instant — the
	// thundering-herd shape — instead of letting goroutine scheduling
	// stagger them.
	HerdStart bool
	// BatchCompletes and RetryBase are forwarded to each WorkerConfig.
	BatchCompletes bool
	RetryBase      time.Duration
	// MaxRespawns caps how many killed workers are replaced (fresh ID,
	// fresh kill draw) while the sweep is unfinished; zero means 4× the
	// fleet width.
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
}

// RunFleet drives an in-process fleet against the coordinator until the
// sweep finishes, the coordinator drains, or ctx is cancelled. It is
// the loopback mode behind `ufsim -experiment`, `ufsim serve -loopback`
// and the chaos tests. Once every unit is terminal it cancels the fleet
// rather than wait for idle workers to wake from their poll backoff and
// see Done.
//
// A Plan's kill schedule crashes a worker the way a process dies: its
// transport goes dead (no later call of its reaches the coordinator)
// and its context is cancelled, so it completes and releases nothing
// and its leases expire. A killed worker is replaced while the sweep is
// unfinished, up to MaxRespawns.
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
		wctx, wcancel := context.WithCancel(ctx)
		// Chain, coordinator-outward: the handler (admission gate
		// included), then network faults on the way there, then the
		// worker's own breaker (added by NewWorker).
		var rt http.RoundTripper = handlerTransport{h: handler}
		run := cfg.NewRunner(id)
		var nt *netFaultTransport
		if cfg.Plan != nil {
			nt = &netFaultTransport{next: rt, plan: cfg.Plan, worker: id, clock: clock}
			rt = nt
			run = killAfter(run, cfg.Plan.KillAfterUnits(id), func() {
				nt.dead.Store(true)
				fmt.Fprintf(logw, "%s: KILLED mid-trial (chaos schedule)\n", id)
				wcancel()
			})
		}
		w := NewWorker(WorkerConfig{
			ID: id, Client: loopbackClient(rt), Run: run,
			Clock: clock, Jobs: cfg.Jobs, PollMax: cfg.PollMax,
			RetryBase: cfg.RetryBase, BatchCompletes: cfg.BatchCompletes,
			Log: logw,
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer wcancel()
			select {
			case <-start:
			case <-ctx.Done():
				return
			}
			w.Run(wctx)
			if cfg.Gate != nil {
				cfg.Gate.RecordBreaker(w.BreakerStats())
			}
			if nt == nil || !nt.dead.Load() {
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
			if !done && respawns < cfg.MaxRespawns && ctx.Err() == nil {
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

// killAfter wraps run so that the nth unit it starts crashes the
// worker: kill fires at the unit's first progress checkpoint — as
// "mid-trial" as it gets — or, if the unit never checkpoints, before it
// reports. n <= 0 never kills.
func killAfter(run UnitRunner, n int, kill func()) UnitRunner {
	if n <= 0 {
		return run
	}
	var started atomic.Int64
	var once sync.Once
	return func(ctx context.Context, u Unit, progress func(string)) UnitResult {
		if started.Add(1) != int64(n) {
			return run(ctx, u, progress)
		}
		res := run(ctx, u, func(note string) {
			once.Do(kill)
			progress(note)
		})
		once.Do(kill)
		return res
	}
}
