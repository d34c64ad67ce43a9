package sweepd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
)

// UnitResult is what a UnitRunner produces for one unit.
type UnitResult struct {
	// OK marks success; Result is the rendered experiment output.
	OK     bool
	Result string
	// Error and Artifact describe a failure (the runner's crash
	// artifact JSON, shipped to the coordinator verbatim).
	Error    string
	Artifact json.RawMessage
	// Attempts and DurationMS are supervision bookkeeping.
	Attempts   int
	DurationMS int64
}

// UnitRunner executes one unit. ctx cancellation must abort the run
// promptly (the worker cancels on heartbeat-abandon and shutdown);
// progress streams checkpoint notes that ride out on heartbeats. `ufsim` adapts the supervised experiment runner into
// one; tests plug in trivial runners.
type UnitRunner func(ctx context.Context, u Unit, progress func(note string)) UnitResult

// ErrBreakerOpen is the circuit breaker's fast-fail: the coordinator
// has failed enough consecutive calls that hammering it would only
// deepen the outage, so calls are refused locally until the cooldown
// admits a probe.
var ErrBreakerOpen = errors.New("sweepd: circuit breaker open; coordinator not probed")

// WorkerConfig tunes one worker.
type WorkerConfig struct {
	// ID names the worker in leases and failure records.
	ID string
	// Client is the coordinator transport (HTTP, loopback, or faulty).
	Client Client
	// Run executes leased units.
	Run UnitRunner
	// Clock supplies time; nil means the wall clock.
	Clock Clock
	// Jobs is how many units to lease and run concurrently; below 1
	// means 1.
	Jobs int
	// PollMax caps the idle backoff between lease polls; zero means 2s.
	PollMax time.Duration
	// RetryBase is the first rung of the jittered exponential transport
	// backoff; zero means 50ms.
	RetryBase time.Duration
	// Seed feeds the jitter stream; zero derives one from ID, so a
	// fleet of workers started identically still spreads its retries.
	Seed uint64
	// BatchCompletes ships each lease round's outcomes as one
	// CompleteBatch request (collected over BatchLinger) instead of one
	// Complete per unit — the worker half of completion pipelining.
	BatchCompletes bool
	// BatchLinger is how long the batch collector waits after the first
	// outcome for siblings to finish; zero means 15ms.
	BatchLinger time.Duration
	// BreakerAfter is how many consecutive transport failures trip the
	// circuit breaker; zero means 8, negative disables the breaker.
	// Shed responses (OverloadError) count as successes — an overloaded
	// coordinator is alive, and backoff, not the breaker, handles it.
	BreakerAfter int
	// BreakerCooldown is how long an open breaker waits before
	// half-opening on a single probe; zero means 2s.
	BreakerCooldown time.Duration
	// Log receives progress lines; nil discards them.
	Log io.Writer
}

// completeRetries is how many times a failed completion delivery is
// retried before giving up (the lease then simply expires).
const completeRetries = 4

// Worker leases units from a coordinator and runs them until the sweep
// is done, the coordinator drains, or its context is cancelled.
//
// Shutdown has two grades, mirroring `ufsim worker`'s signal handling:
// Drain (first signal) stops leasing and lets in-flight units finish
// and report; cancelling the Run context (second signal) aborts
// in-flight units and releases their leases, so the coordinator can
// reassign them immediately instead of waiting out the TTL.
type Worker struct {
	cfg     WorkerConfig
	breaker *breakerClient

	rngMu sync.Mutex
	rng   *sim.Rand

	draining atomic.Bool
}

// NewWorker builds a worker; Client and Run are required.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.Clock == nil {
		cfg.Clock = RealClock{}
	}
	if cfg.Jobs < 1 {
		cfg.Jobs = 1
	}
	if cfg.PollMax <= 0 {
		cfg.PollMax = 2 * time.Second
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 50 * time.Millisecond
	}
	if cfg.Seed == 0 {
		cfg.Seed = sim.HashString(cfg.ID)
	}
	if cfg.BatchLinger <= 0 {
		cfg.BatchLinger = 15 * time.Millisecond
	}
	if cfg.BreakerAfter == 0 {
		cfg.BreakerAfter = 8
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 2 * time.Second
	}
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	w := &Worker{cfg: cfg, rng: sim.NewRand(cfg.Seed)}
	if cfg.BreakerAfter > 0 {
		w.breaker = &breakerClient{
			inner:    cfg.Client,
			clock:    cfg.Clock,
			after:    cfg.BreakerAfter,
			cooldown: cfg.BreakerCooldown,
		}
		w.cfg.Client = w.breaker
	}
	return w
}

// BreakerStats reports the worker's circuit-breaker activity (zero when
// the breaker is disabled).
func (w *Worker) BreakerStats() BreakerStats {
	if w.breaker == nil {
		return BreakerStats{}
	}
	return w.breaker.snapshot()
}

// newRetrier derives an independent jittered-backoff schedule. Each
// caller (the lease loop, each completion delivery) gets its own stream
// split from the worker seed, so schedules are deterministic per worker
// yet uncorrelated across workers and across purposes.
func (w *Worker) newRetrier(label string) *retrier {
	w.rngMu.Lock()
	rng := w.rng.Split(sim.HashString(label))
	w.rngMu.Unlock()
	return &retrier{rng: rng, base: w.cfg.RetryBase, max: w.cfg.PollMax}
}

// Drain stops the worker from leasing new units; in-flight units finish
// and report, then Run returns nil.
func (w *Worker) Drain() { w.draining.Store(true) }

// Run is the worker main loop: lease, execute, report, repeat. It
// returns nil when the sweep is done or draining, and ctx.Err() on
// cancellation.
func (w *Worker) Run(ctx context.Context) error {
	retry := w.newRetrier("lease")
	for {
		if w.draining.Load() {
			fmt.Fprintf(w.cfg.Log, "%s: drained, exiting\n", w.cfg.ID)
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}

		resp, err := w.cfg.Client.Lease(ctx, LeaseRequest{Worker: w.cfg.ID, Max: w.cfg.Jobs})
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			// Transport fault, shed, or open breaker: back off and retry.
			// A shed carries the coordinator's own hint — honor it
			// (stretched, so the herd does not re-synchronize on it).
			wait := retry.next()
			var oe *OverloadError
			if errors.As(err, &oe) {
				wait = retry.stretch(oe.RetryAfter)
			}
			if err := w.cfg.Clock.Sleep(ctx, wait); err != nil {
				return err
			}
			continue
		}
		retry.reset()
		if resp.Degraded {
			// The coordinator can no longer persist state and is refusing
			// leases; idling here would just hide the outage. Exit loudly.
			fmt.Fprintf(w.cfg.Log, "%s: coordinator degraded, exiting\n", w.cfg.ID)
			return ErrDegraded
		}
		if resp.Done || resp.Draining {
			return nil
		}
		if len(resp.Units) == 0 {
			wait := time.Duration(resp.RetryAfterMillis) * time.Millisecond
			if wait <= 0 || wait > w.cfg.PollMax {
				wait = w.cfg.PollMax
			}
			// Jitter the shared hint: every idle worker gets the same
			// RetryAfterMillis, and sleeping it verbatim would march the
			// fleet back in lockstep.
			if err := w.cfg.Clock.Sleep(ctx, retry.stretch(wait)); err != nil {
				return err
			}
			continue
		}

		var sink *completionSink
		if w.cfg.BatchCompletes {
			sink = w.startSink(ctx, len(resp.Units))
		}
		var wg sync.WaitGroup
		for _, lu := range resp.Units {
			wg.Add(1)
			go func(lu LeasedUnit) {
				defer wg.Done()
				w.execute(ctx, lu, sink)
			}(lu)
		}
		wg.Wait()
		if sink != nil {
			close(sink.ch)
			<-sink.done
		}
	}
}

// execute runs one leased unit under a heartbeat loop and reports its
// outcome. Cancelling ctx is an external abort (release the lease);
// a heartbeat's Abandon is an internal one (the lease is no longer
// ours — walk away silently).
// With a non-nil sink the outcome goes to the batch collector instead
// of an individual Complete round trip.
func (w *Worker) execute(ctx context.Context, lu LeasedUnit, sink *completionSink) {
	unitCtx, cancelUnit := context.WithCancel(ctx)
	defer cancelUnit()

	var noteMu sync.Mutex
	var note string
	progress := func(s string) {
		noteMu.Lock()
		note = s
		noteMu.Unlock()
	}

	// Heartbeat at a third of the TTL, carrying the latest note. A
	// transport error is left for the next tick (a missed heartbeat is
	// exactly what the lease TTL is sized to absorb); an Abandon reply
	// cancels the run — the unit belongs to someone else now.
	ttl := time.Duration(lu.TTLMillis) * time.Millisecond
	every := ttl / 3
	if every <= 0 {
		every = time.Second
	}
	hbDone := make(chan struct{})
	abandoned := &atomic.Bool{}
	go func() {
		defer close(hbDone)
		for {
			if err := w.cfg.Clock.Sleep(unitCtx, every); err != nil {
				return
			}
			noteMu.Lock()
			s := note
			noteMu.Unlock()
			resp, err := w.cfg.Client.Heartbeat(unitCtx, HeartbeatRequest{
				Worker: w.cfg.ID, Unit: lu.Unit.ID, Epoch: lu.Epoch, Note: s,
			})
			if err != nil {
				continue
			}
			if resp.Abandon {
				abandoned.Store(true)
				cancelUnit()
				return
			}
		}
	}()

	start := w.cfg.Clock.Now()
	res := w.cfg.Run(unitCtx, lu.Unit, progress)
	cancelUnit()
	<-hbDone

	if abandoned.Load() {
		fmt.Fprintf(w.cfg.Log, "%s: abandoned %s (lease reassigned)\n", w.cfg.ID, lu.Unit.ID)
		return
	}
	if ctx.Err() != nil {
		// Aborted from outside: hand the lease back so the coordinator
		// reassigns immediately instead of waiting out the TTL. The
		// worker is shutting down, so use a short independent context.
		rctx, rcancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer rcancel()
		if _, err := w.cfg.Client.Release(rctx, ReleaseRequest{
			Worker: w.cfg.ID,
			Units:  []UnitEpoch{{Unit: lu.Unit.ID, Epoch: lu.Epoch}},
			Reason: "worker aborted",
		}); err != nil {
			fmt.Fprintf(w.cfg.Log, "%s: release of %s failed, leaving it to lease expiry: %v\n", w.cfg.ID, lu.Unit.ID, err)
			return
		}
		fmt.Fprintf(w.cfg.Log, "%s: released %s (aborted)\n", w.cfg.ID, lu.Unit.ID)
		return
	}

	if res.DurationMS == 0 {
		res.DurationMS = w.cfg.Clock.Now().Sub(start).Milliseconds()
	}
	if sink != nil {
		sink.ch <- CompletedUnit{
			Unit: lu.Unit.ID, Epoch: lu.Epoch,
			OK: res.OK, Result: res.Result, Error: res.Error,
			Artifact: res.Artifact, Attempts: res.Attempts, DurationMS: res.DurationMS,
		}
		return
	}
	w.complete(ctx, lu, res)
}

// completionSink collects one lease round's outcomes for batched
// delivery. ch is buffered to the round's unit count so executors never
// block on it; Run closes it after the round's WaitGroup drains and
// waits on done for the final flush.
type completionSink struct {
	ch   chan CompletedUnit
	done chan struct{}
}

// startSink launches the batch collector for one lease round.
func (w *Worker) startSink(ctx context.Context, capacity int) *completionSink {
	s := &completionSink{ch: make(chan CompletedUnit, capacity), done: make(chan struct{})}
	go w.collectCompletions(ctx, s)
	return s
}

// collectCompletions gathers outcomes into batches: the first arrival
// opens a linger window for siblings to land in, then everything
// buffered ships as one CompleteBatch. Units that were aborted,
// abandoned, or released never enter the sink, so a batch only ever carries
// outcomes this worker still believes it owns.
func (w *Worker) collectCompletions(ctx context.Context, s *completionSink) {
	defer close(s.done)
	retry := w.newRetrier("complete-batch")
	for {
		cu, ok := <-s.ch
		if !ok {
			return
		}
		batch := []CompletedUnit{cu}
		// Linger for stragglers; a cancelled clock just means we flush
		// immediately with whatever is buffered.
		w.cfg.Clock.Sleep(ctx, w.cfg.BatchLinger)
		closed := false
	drain:
		for {
			select {
			case cu, ok := <-s.ch:
				if !ok {
					closed = true
					break drain
				}
				batch = append(batch, cu)
			default:
				break drain
			}
		}
		w.deliverBatch(ctx, retry, batch)
		if closed {
			return
		}
	}
}

// deliverBatch ships one CompleteBatch with the same retry/fencing
// discipline as complete: give-up is safe (lease expiry re-earns the
// outcome), redelivery is absorbed idempotently, and a shed response's
// hint is honored.
func (w *Worker) deliverBatch(ctx context.Context, retry *retrier, batch []CompletedUnit) {
	req := CompleteBatchRequest{Worker: w.cfg.ID, Units: batch}
	for i := 0; i <= completeRetries; i++ {
		resp, err := w.cfg.Client.CompleteBatch(ctx, req)
		if ctx.Err() != nil {
			return
		}
		if err == nil {
			for j, accepted := range resp.Accepted {
				if !accepted && j < len(batch) {
					fmt.Fprintf(w.cfg.Log, "%s: completion of %s fenced off (stale epoch %d)\n", w.cfg.ID, batch[j].Unit, batch[j].Epoch)
				}
			}
			retry.reset()
			return
		}
		wait := retry.next()
		var oe *OverloadError
		if errors.As(err, &oe) {
			wait = retry.stretch(oe.RetryAfter)
		}
		if err := w.cfg.Clock.Sleep(ctx, wait); err != nil {
			return
		}
	}
	fmt.Fprintf(w.cfg.Log, "%s: could not deliver batch of %d completion(s); leaving them to lease expiry\n", w.cfg.ID, len(batch))
}

// complete delivers the outcome, retrying transport faults with backoff.
// Giving up is safe: the undelivered outcome is re-earned after the
// lease expires, and if an earlier delivery actually landed (a dropped
// response), the coordinator's idempotent accept absorbs the retry.
func (w *Worker) complete(ctx context.Context, lu LeasedUnit, res UnitResult) {
	req := CompleteRequest{
		Worker: w.cfg.ID, Unit: lu.Unit.ID, Epoch: lu.Epoch,
		OK: res.OK, Result: res.Result, Error: res.Error,
		Artifact: res.Artifact, Attempts: res.Attempts, DurationMS: res.DurationMS,
	}
	retry := w.newRetrier("complete/" + string(lu.Unit.ID))
	for i := 0; i <= completeRetries; i++ {
		resp, err := w.cfg.Client.Complete(ctx, req)
		if ctx.Err() != nil {
			return
		}
		if err == nil {
			if !resp.Accepted {
				fmt.Fprintf(w.cfg.Log, "%s: completion of %s fenced off (stale epoch %d)\n", w.cfg.ID, lu.Unit.ID, lu.Epoch)
			}
			return
		}
		wait := retry.next()
		var oe *OverloadError
		if errors.As(err, &oe) {
			wait = retry.stretch(oe.RetryAfter)
		}
		if err := w.cfg.Clock.Sleep(ctx, wait); err != nil {
			return
		}
	}
	fmt.Fprintf(w.cfg.Log, "%s: could not deliver completion of %s; leaving it to lease expiry\n", w.cfg.ID, lu.Unit.ID)
}

// retrier is a full-jitter exponential backoff schedule: the nth wait
// is drawn uniformly from (0, min(max, base·2ⁿ)]. Full jitter is what
// breaks the thundering herd — two workers with the same failure
// history still sleep different amounts, because each draws from its
// own seeded stream.
type retrier struct {
	rng  *sim.Rand
	base time.Duration
	max  time.Duration
	n    int
}

// next returns the next backoff and advances the schedule.
func (r *retrier) next() time.Duration {
	ceil := r.base << uint(r.n)
	if ceil <= 0 || ceil > r.max {
		ceil = r.max
	}
	if r.n < 30 {
		r.n++
	}
	if ceil < time.Millisecond {
		ceil = time.Millisecond
	}
	return time.Duration(r.rng.IntN(int(ceil))) + 1
}

// reset rewinds the schedule after a success.
func (r *retrier) reset() { r.n = 0 }

// stretch jitters a server-supplied hint upward by as much as half —
// honoring a shared Retry-After verbatim would just re-synchronize the
// herd on the server's own clock.
func (r *retrier) stretch(d time.Duration) time.Duration {
	if d <= 0 {
		return r.next()
	}
	return d + time.Duration(r.rng.IntN(int(d/2)+1))
}

// breaker states.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// breakerClient wraps a Client in a circuit breaker: after `after`
// consecutive transport failures it opens, fast-failing every call
// locally for `cooldown`, then half-opens on exactly one probe — a
// down coordinator gets one polite knock per cooldown instead of a
// fleet-wide hammering. Shed responses (OverloadError) and the caller's
// own cancellation never count as failures: the first means the
// coordinator is alive, the second says nothing about it at all.
type breakerClient struct {
	inner    Client
	clock    Clock
	after    int
	cooldown time.Duration

	mu          sync.Mutex
	state       int
	consecutive int
	openedAt    time.Time
	st          BreakerStats
}

// allow gates one call: nil to proceed (possibly as the half-open
// probe), ErrBreakerOpen to fast-fail.
func (b *breakerClient) allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return nil
	case breakerOpen:
		if b.clock.Now().Sub(b.openedAt) >= b.cooldown {
			b.state = breakerHalfOpen
			b.st.Probes++
			return nil
		}
	default:
		// Half-open with the probe already in flight: its verdict
		// decides for everyone, so extra calls wait out the probe.
	}
	b.st.FastFails++
	return ErrBreakerOpen
}

// record books one call's outcome.
func (b *breakerClient) record(err error) {
	var oe *OverloadError
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return // the caller hung up; the coordinator was never heard from
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if err == nil || errors.As(err, &oe) {
		b.state = breakerClosed
		b.consecutive = 0
		return
	}
	b.consecutive++
	if b.state == breakerHalfOpen || (b.state == breakerClosed && b.consecutive >= b.after) {
		b.state = breakerOpen
		b.openedAt = b.clock.Now()
		b.st.Trips++
		b.consecutive = 0
	}
}

// snapshot copies the counters.
func (b *breakerClient) snapshot() BreakerStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.st
}

// Lease implements Client.
func (b *breakerClient) Lease(ctx context.Context, req LeaseRequest) (LeaseResponse, error) {
	if err := b.allow(); err != nil {
		return LeaseResponse{}, err
	}
	resp, err := b.inner.Lease(ctx, req)
	b.record(err)
	return resp, err
}

// Heartbeat implements Client.
func (b *breakerClient) Heartbeat(ctx context.Context, req HeartbeatRequest) (HeartbeatResponse, error) {
	if err := b.allow(); err != nil {
		return HeartbeatResponse{}, err
	}
	resp, err := b.inner.Heartbeat(ctx, req)
	b.record(err)
	return resp, err
}

// Complete implements Client.
func (b *breakerClient) Complete(ctx context.Context, req CompleteRequest) (CompleteResponse, error) {
	if err := b.allow(); err != nil {
		return CompleteResponse{}, err
	}
	resp, err := b.inner.Complete(ctx, req)
	b.record(err)
	return resp, err
}

// CompleteBatch implements Client.
func (b *breakerClient) CompleteBatch(ctx context.Context, req CompleteBatchRequest) (CompleteBatchResponse, error) {
	if err := b.allow(); err != nil {
		return CompleteBatchResponse{}, err
	}
	resp, err := b.inner.CompleteBatch(ctx, req)
	b.record(err)
	return resp, err
}

// Release implements Client.
func (b *breakerClient) Release(ctx context.Context, req ReleaseRequest) (ReleaseResponse, error) {
	if err := b.allow(); err != nil {
		return ReleaseResponse{}, err
	}
	resp, err := b.inner.Release(ctx, req)
	b.record(err)
	return resp, err
}
