package sweepd

// Admission control: the overload armor in front of the coordinator.
// PRs 6-7 made the sweep service crash-proof against network and disk
// faults; the Gate makes it survive *load*. Every protocol endpoint gets
// a semaphore of Inflight slots plus a bounded wait queue: a request
// either runs now, waits briefly for a slot, or is shed with a typed
// OverloadError carrying a Retry-After hint scaled by queue pressure.
// The coordinator never sees more than Inflight concurrent calls per
// endpoint, so a thundering herd of workers degrades into orderly
// queueing and shedding instead of lock convoys and memory blowup.
//
// The HTTP server acquires the Gate in middleware (shed = 429 +
// Retry-After). In-process fleets call that same handler, so the chaos
// tests exercise the identical admission path CI's HTTP fleets run
// behind. Pressure —
// the fullest endpoint queue, in [0, 1] — also feeds the coordinator's
// adaptive lease RetryAfterMillis: polls stretch as load climbs
// (brownout) long before anything has to be refused outright
// (blackout). See DESIGN.md §10 for the full ladder.

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"
)

// Endpoint names used by the admission gate's per-endpoint slots and
// counters; the HTTP route map assigns each protocol POST to one.
const (
	EndpointLease     = "lease"
	EndpointHeartbeat = "heartbeat"
	EndpointComplete  = "complete"
	EndpointRelease   = "release"
	EndpointStatus    = "status"
)

// gateEndpoints lists every gated endpoint in display order.
func gateEndpoints() []string {
	return []string{EndpointLease, EndpointHeartbeat, EndpointComplete, EndpointRelease, EndpointStatus}
}

// OverloadError is the shed verdict: the request was refused (or timed
// out queued) under load and should be retried after RetryAfter. The
// HTTP server renders it as 429 + Retry-After; HTTPClient parses that
// back into the same type for the worker's backoff.
type OverloadError struct {
	Endpoint   string
	RetryAfter time.Duration
}

// Error implements error.
func (e *OverloadError) Error() string {
	return fmt.Sprintf("sweepd: %s overloaded, retry after %v", e.Endpoint, e.RetryAfter)
}

// GateLimits bounds one endpoint's admission.
type GateLimits struct {
	// Inflight is how many requests may be inside the coordinator at
	// once; zero means 64.
	Inflight int
	// Queue is how many more may wait for a slot before new arrivals are
	// shed immediately; zero means 4×Inflight.
	Queue int
	// QueueWait is the longest a queued request waits before it is shed
	// anyway; zero means 1s.
	QueueWait time.Duration
}

func (l GateLimits) withDefaults() GateLimits {
	if l.Inflight <= 0 {
		l.Inflight = 64
	}
	if l.Queue <= 0 {
		l.Queue = 4 * l.Inflight
	}
	if l.QueueWait <= 0 {
		l.QueueWait = time.Second
	}
	return l
}

// GateConfig tunes the admission gate.
type GateConfig struct {
	// Default applies to every endpoint.
	Default GateLimits
}

// EndpointLoad is one endpoint's admission counters.
type EndpointLoad struct {
	// Admitted counts requests that got a slot (queued or not); Shed
	// counts refusals (queue full or queue wait exhausted).
	Admitted int64 `json:"admitted"`
	Shed     int64 `json:"shed,omitempty"`
	// Inflight/Queued are the live gauges; the Max fields are their
	// high-water marks. InflightMax can never exceed the configured cap
	// — that is the property the overload chaos test asserts.
	Inflight    int64 `json:"inflight,omitempty"`
	InflightMax int64 `json:"inflight_max,omitempty"`
	Queued      int64 `json:"queued,omitempty"`
	QueuedMax   int64 `json:"queued_max,omitempty"`
}

// BreakerStats aggregates worker-side circuit-breaker activity (trips,
// fast-failed calls while open, half-open probes). The loopback fleet
// folds its workers' breakers into the gate so `GET /v1/status` shows
// one overload picture; HTTP workers log theirs locally instead.
type BreakerStats struct {
	Trips     int64 `json:"trips,omitempty"`
	FastFails int64 `json:"fast_fails,omitempty"`
	Probes    int64 `json:"probes,omitempty"`
}

// OverloadStats is the admission section of /v1/status.
type OverloadStats struct {
	// Endpoints maps endpoint name to its counters.
	Endpoints map[string]EndpointLoad `json:"endpoints"`
	// Pressure is the fullest endpoint queue in [0, 1] — the brownout
	// input that stretches lease RetryAfterMillis.
	Pressure float64 `json:"pressure"`
	// Breaker aggregates in-process workers' circuit breakers.
	Breaker BreakerStats `json:"breaker,omitempty"`
}

// gateSlot is one endpoint's semaphore and counters.
type gateSlot struct {
	limits GateLimits
	sem    chan struct{}

	admitted    atomic.Int64
	shed        atomic.Int64
	inflight    atomic.Int64
	inflightMax atomic.Int64
	queued      atomic.Int64
	queuedMax   atomic.Int64
}

// bumpMax raises a high-water mark to at least v.
func bumpMax(m *atomic.Int64, v int64) {
	for {
		cur := m.Load()
		if v <= cur || m.CompareAndSwap(cur, v) {
			return
		}
	}
}

// enqueue reserves a queue position, refusing past the bound.
func (s *gateSlot) enqueue() bool {
	for {
		q := s.queued.Load()
		if q >= int64(s.limits.Queue) {
			return false
		}
		if s.queued.CompareAndSwap(q, q+1) {
			bumpMax(&s.queuedMax, q+1)
			return true
		}
	}
}

// admit records the slot acquisition and returns its release func.
func (s *gateSlot) admit() func() {
	s.admitted.Add(1)
	bumpMax(&s.inflightMax, s.inflight.Add(1))
	var released atomic.Bool
	return func() {
		if released.Swap(true) {
			return
		}
		s.inflight.Add(-1)
		<-s.sem
	}
}

// Gate is the admission controller. Safe for concurrent use; one Gate
// fronts one coordinator across all transports.
type Gate struct {
	slots map[string]*gateSlot

	breakerTrips     atomic.Int64
	breakerFastFails atomic.Int64
	breakerProbes    atomic.Int64
}

// NewGate builds a gate over cfg.
func NewGate(cfg GateConfig) *Gate {
	g := &Gate{slots: make(map[string]*gateSlot)}
	limits := cfg.Default.withDefaults()
	for _, ep := range gateEndpoints() {
		g.slots[ep] = &gateSlot{limits: limits, sem: make(chan struct{}, limits.Inflight)}
	}
	return g
}

// Acquire admits one request to endpoint, queueing up to the endpoint's
// bound. It returns a release func on admission, an *OverloadError on
// shed, or ctx.Err() if the caller gave up while queued. An unknown
// endpoint is admitted unconditionally (the gate only protects what it
// was configured to know about).
func (g *Gate) Acquire(ctx context.Context, endpoint string) (func(), error) {
	s := g.slots[endpoint]
	if s == nil {
		return func() {}, nil
	}
	select {
	case s.sem <- struct{}{}:
		return s.admit(), nil
	default:
	}
	if !s.enqueue() {
		s.shed.Add(1)
		return nil, &OverloadError{Endpoint: endpoint, RetryAfter: g.retryAfter(s)}
	}
	defer s.queued.Add(-1)

	timer := time.NewTimer(s.limits.QueueWait)
	defer timer.Stop()
	select {
	case s.sem <- struct{}{}:
		return s.admit(), nil
	case <-timer.C:
		s.shed.Add(1)
		return nil, &OverloadError{Endpoint: endpoint, RetryAfter: g.retryAfter(s)}
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// retryAfter hints how long a shed caller should stay away: a quarter
// of the queue wait at the first refusal, stretching toward 1.25× as
// the queue saturates — the deeper the backlog, the gentler the herd
// must poll.
func (g *Gate) retryAfter(s *gateSlot) time.Duration {
	w := s.limits.QueueWait
	p := float64(s.queued.Load()) / float64(s.limits.Queue)
	if p > 1 {
		p = 1
	}
	ra := w/4 + time.Duration(p*float64(w))
	if ra < time.Millisecond {
		ra = time.Millisecond
	}
	return ra
}

// Pressure is the fullest endpoint queue in [0, 1]. Zero means no
// request is waiting anywhere; 1 means at least one endpoint is
// shedding on arrival.
func (g *Gate) Pressure() float64 {
	var p float64
	for _, s := range g.slots {
		q := float64(s.queued.Load()) / float64(s.limits.Queue)
		if q > p {
			p = q
		}
	}
	if p > 1 {
		p = 1
	}
	return p
}

// RecordBreaker folds one worker's circuit-breaker counters into the
// gate's aggregate (the loopback fleet calls this as workers finish).
func (g *Gate) RecordBreaker(st BreakerStats) {
	g.breakerTrips.Add(st.Trips)
	g.breakerFastFails.Add(st.FastFails)
	g.breakerProbes.Add(st.Probes)
}

// Stats snapshots the admission counters for /v1/status.
func (g *Gate) Stats() OverloadStats {
	st := OverloadStats{
		Endpoints: make(map[string]EndpointLoad, len(g.slots)),
		Pressure:  g.Pressure(),
		Breaker: BreakerStats{
			Trips:     g.breakerTrips.Load(),
			FastFails: g.breakerFastFails.Load(),
			Probes:    g.breakerProbes.Load(),
		},
	}
	for ep, s := range g.slots {
		st.Endpoints[ep] = EndpointLoad{
			Admitted:    s.admitted.Load(),
			Shed:        s.shed.Load(),
			Inflight:    s.inflight.Load(),
			InflightMax: s.inflightMax.Load(),
			Queued:      s.queued.Load(),
			QueuedMax:   s.queuedMax.Load(),
		}
	}
	return st
}
