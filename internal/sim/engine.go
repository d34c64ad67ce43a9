package sim

import (
	"context"
	"errors"
	"fmt"
)

// Ticker is a periodic callback registered with an Engine. Fn is invoked
// with the virtual time of the tick; ticks are strictly ordered, and tickers
// that collide on the same instant fire in priority order, then in
// registration order.
type Ticker struct {
	// Name identifies the ticker in diagnostics.
	Name string
	// Period is the spacing of ticks; it must be positive.
	Period Time
	// Phase delays the first tick after the engine start.
	Phase Time
	// Priority orders tickers that fire at the same instant; lower runs
	// first. Workload quanta run before governor epochs so that an epoch
	// decision sees the activity of the quanta that precede it.
	Priority int
	// Fn is the tick body. now is the tick instant.
	Fn func(now Time)

	// next is the ticker's pending deadline; seq is its registration
	// order, the tie-breaker that keeps same-priority cohorts firing in
	// Add order (the contract the old sorted-slice dispatcher gave).
	next Time
	seq  uint64
	// paused marks a ticker de-scheduled by Engine.Pause. A paused ticker
	// keeps its deadline grid (next is the deadline that was pending when
	// it paused) so Resume can re-arm on the original phase.
	paused bool
}

// Paused reports whether the ticker is currently de-scheduled by
// Engine.Pause.
func (t *Ticker) Paused() bool { return t.paused }

// ErrBudgetExceeded is the cause (wrapped in a *BudgetError) carried by
// the Abort that Run panics with when the engine's step watchdog trips.
// A runaway simulation — a ticker misconfigured to a tiny period, or a
// run window far longer than intended — otherwise spins for an unbounded
// number of ticks; the budget converts that hang into a typed,
// inspectable error.
var ErrBudgetExceeded = errors.New("sim: engine step budget exceeded")

// BudgetError reports a tripped step watchdog. It matches
// ErrBudgetExceeded under errors.Is.
type BudgetError struct {
	// Steps is the lifetime tick count at the moment the budget tripped;
	// Budget is the configured limit.
	Steps, Budget int64
	// Now is the virtual time the engine had reached.
	Now Time
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("sim: engine step budget exceeded (%d ticks fired, budget %d, at t=%v)", e.Steps, e.Budget, e.Now)
}

// Is makes errors.Is(err, ErrBudgetExceeded) true for *BudgetError.
func (e *BudgetError) Is(target error) bool { return target == ErrBudgetExceeded }

// Abort is the panic value Run uses when the engine's bound context is
// cancelled or its step budget trips mid-run. Run predates cancellation
// and keeps its error-free signature for the many simulation call sites
// that cannot fail; a supervisor that needs the typed cause recovers the
// panic and unwraps it with AbortCause.
type Abort struct{ Err error }

func (a Abort) Error() string { return "sim: run aborted: " + a.Err.Error() }

// AbortCause extracts the abort error from a recovered panic value. It
// returns (nil, false) when r is not an engine abort.
func AbortCause(r any) (error, bool) {
	if a, ok := r.(Abort); ok {
		return a.Err, true
	}
	return nil, false
}

// ctxCheckEvery is how many ticks Run fires between checks of the bound
// context. Cancellation is therefore honored within this many engine
// steps of the deadline — a bounded, documented lag, chosen so the
// atomic load on the context does not show up in the hot loop.
const ctxCheckEvery = 64

// Engine drives virtual time forward through a set of periodic tickers.
// Tickers live in an indexed min-heap ordered by (deadline, priority,
// registration order): finding the next instant is O(1) and dispatching a
// same-instant cohort pops only the tickers due, instead of re-walking the
// whole set per instant. The dispatch loop allocates nothing in steady
// state — the heap and the cohort scratch are reused across instants.
type Engine struct {
	now Time

	// heap is the deadline min-heap; cohort is the reused scratch that
	// holds the tickers popped for the instant being dispatched.
	heap   []*Ticker
	cohort []*Ticker
	seq    uint64

	// firing marks that the engine is inside one instant's dispatch
	// loop; Add defers insertions to pending until the instant
	// completes so a mid-dispatch registration cannot join (or reorder)
	// the cohort being fired.
	firing  bool
	pending []*Ticker

	// ctx is the bound context consulted by Run; nil means Background.
	ctx context.Context
	// steps counts ticks fired over the engine's lifetime; budget (when
	// positive) is the watchdog limit on steps.
	steps  int64
	budget int64
}

// NewEngine returns an engine positioned at virtual time zero.
func NewEngine() *Engine { return &Engine{} }

// Reset returns the engine to its initial state — virtual time zero, no
// tickers, no bound context, watchdog disarmed — while keeping the heap
// and cohort backing arrays for reuse. A reset engine is indistinguishable
// from NewEngine() to its tickers: registration sequence numbers restart
// at zero, so re-Adding tickers in construction order reproduces the
// original firing order exactly.
func (e *Engine) Reset() {
	for i := range e.heap {
		e.heap[i] = nil
	}
	e.heap = e.heap[:0]
	for i := range e.cohort {
		e.cohort[i] = nil
	}
	e.cohort = e.cohort[:0]
	for i := range e.pending {
		e.pending[i] = nil
	}
	e.pending = e.pending[:0]
	e.now = 0
	e.seq = 0
	e.steps = 0
	e.firing = false
	e.ctx = nil
	e.budget = 0
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Steps returns the number of ticks fired over the engine's lifetime.
func (e *Engine) Steps() int64 { return e.steps }

// Bind installs a context consulted by Run: when ctx is cancelled (or the
// step budget trips) mid-run, Run panics with an Abort carrying the
// cause, and the engine stops at the last fully dispatched instant, so a
// later run resumes without double-firing. Binding is the one
// cancellation entry point: it lets a supervisor cut short deeply nested
// simulation code that calls Run through error-free interfaces, and the
// supervisor recovers the cause with AbortCause. A nil ctx unbinds.
func (e *Engine) Bind(ctx context.Context) { e.ctx = ctx }

// SetStepBudget arms the watchdog: once the lifetime tick count reaches
// budget, Run panics with an Abort wrapping a *BudgetError. A
// non-positive budget disarms the watchdog.
func (e *Engine) SetStepBudget(budget int64) { e.budget = budget }

// Add registers a ticker. It panics on a non-positive period, because a
// zero-period ticker would stall virtual time.
//
// Adding a ticker the engine already holds re-registers it: Add first
// retracts it wherever it is — scheduled, pending, or in the cohort of
// the instant being dispatched, fired or not — and clears its pause.
// Either way its first tick is at now + Phase + Period, and it ties
// behind every ticker registered before it.
//
// Contract for mid-run additions: a ticker added from inside a ticker's
// Fn (its own included) joins the schedule once the current instant's
// dispatch completes — it can never fire at the instant that registered
// it — and now is the instant of the registering tick.
func (e *Engine) Add(t *Ticker) {
	if t.Period <= 0 {
		panic(fmt.Sprintf("sim: ticker %q has non-positive period %v", t.Name, t.Period))
	}
	e.removeFromHeap(t)
	e.removeFromPending(t)
	for i, c := range e.cohort {
		if c == t {
			e.cohort[i] = nil
		}
	}
	t.next = e.now + t.Phase + t.Period
	t.seq = e.seq
	e.seq++
	t.paused = false
	if e.firing {
		e.pending = append(e.pending, t)
		return
	}
	e.push(t)
}

// Pause de-schedules t: it stops firing until Resume (or a fresh Add)
// re-arms it. The ticker keeps the deadline that was pending when it
// paused, so a later Resume re-arms on the original grid — quantum
// tickers stay aligned to multiples of their period no matter how long
// they sat out. Pausing a ticker the engine does not hold (never added,
// already paused) is a no-op. Pausing from inside the ticker's own Fn is
// the supported self-de-arm path: ticks already committed to the current
// instant still fire for other tickers, and t simply is not re-scheduled.
// Pausing a same-instant cohort member that has not fired yet retracts
// its tick for this instant too.
func (e *Engine) Pause(t *Ticker) {
	if t.paused {
		return
	}
	t.paused = true
	e.removeFromHeap(t)
	e.removeFromPending(t)
}

// Resume re-arms a paused ticker. The first post-resume tick lands on
// the earliest grid point strictly after now, where the grid is the
// ticker's original deadline sequence (next + k*Period): a strictly-after
// deadline matches stepped semantics, because a tick at exactly `now`
// would already have fired before any external caller could observe the
// engine at that instant. Resuming an unpaused ticker is a no-op.
// Resuming from inside a tick joins the schedule once the current
// instant completes, mirroring the Add contract.
func (e *Engine) Resume(t *Ticker) {
	if !t.paused {
		return
	}
	t.paused = false
	if t.next <= e.now {
		missed := (e.now - t.next) / t.Period
		t.next += (missed + 1) * t.Period
	}
	if e.firing {
		// If t is in the cohort being dispatched (paused and resumed
		// within one instant) the re-push loop re-inserts it; appending
		// here too would double-schedule it.
		for _, c := range e.cohort {
			if c == t {
				return
			}
		}
		e.pending = append(e.pending, t)
		return
	}
	e.push(t)
}

// NextDeadline returns the earliest pending deadline and true, or zero
// and false when nothing is scheduled. During a dispatch it reflects only
// tickers not in the instant being fired.
func (e *Engine) NextDeadline() (Time, bool) {
	if len(e.heap) == 0 {
		return 0, false
	}
	return e.heap[0].next, true
}

// removeFromHeap deletes t from the deadline heap if present. Engines
// hold a handful of tickers, so the linear scan for the index is cheaper
// than maintaining per-ticker heap indices on every sift.
func (e *Engine) removeFromHeap(t *Ticker) {
	h := e.heap
	for i, c := range h {
		if c != t {
			continue
		}
		last := len(h) - 1
		h[i] = h[last]
		h[last] = nil
		e.heap = h[:last]
		if i < last {
			e.siftUp(i)
			e.siftDown(i)
		}
		return
	}
}

// removeFromPending deletes t from the deferred-insertion list if
// present, preserving the order of the survivors.
func (e *Engine) removeFromPending(t *Ticker) {
	for i, c := range e.pending {
		if c != t {
			continue
		}
		copy(e.pending[i:], e.pending[i+1:])
		last := len(e.pending) - 1
		e.pending[last] = nil
		e.pending = e.pending[:last]
		return
	}
}

// before orders the heap: earliest deadline first, ties broken by
// priority then registration order — exactly the firing order of the old
// priority-sorted linear dispatcher.
func before(a, b *Ticker) bool {
	if a.next != b.next {
		return a.next < b.next
	}
	if a.Priority != b.Priority {
		return a.Priority < b.Priority
	}
	return a.seq < b.seq
}

// push inserts t into the deadline heap.
func (e *Engine) push(t *Ticker) {
	e.heap = append(e.heap, t)
	i := len(e.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !before(e.heap[i], e.heap[parent]) {
			break
		}
		e.heap[i], e.heap[parent] = e.heap[parent], e.heap[i]
		i = parent
	}
}

// pop removes and returns the heap minimum; the heap must be non-empty.
func (e *Engine) pop() *Ticker {
	h := e.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = nil
	e.heap = h[:last]
	e.siftDown(0)
	return top
}

// siftUp restores the heap property upward from index i after a
// removal placed an arbitrary element there.
func (e *Engine) siftUp(i int) {
	h := e.heap
	for i > 0 {
		parent := (i - 1) / 2
		if !before(h[i], h[parent]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (e *Engine) siftDown(i int) {
	h := e.heap
	n := len(h)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		min := left
		if right := left + 1; right < n && before(h[right], h[left]) {
			min = right
		}
		if !before(h[min], h[i]) {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// Run advances virtual time by d, firing every tick that falls in the
// window (start, start+d]. Ticks at the same instant fire in priority
// order. If the engine has a bound context that is cancelled mid-run, or
// the step budget trips, Run panics with an Abort (see Bind).
func (e *Engine) Run(d Time) {
	if d < 0 {
		panic("sim: cannot run the engine backwards")
	}
	e.RunUntil(e.now + d)
}

// RunUntil advances virtual time to the absolute instant t, firing every
// tick in (now, t]. It is Run addressed by deadline instead of span — the
// fast path for callers that resume a simulation toward a known instant
// without recomputing deltas. Like Run it panics with an Abort when the
// bound context is cancelled or the budget trips.
func (e *Engine) RunUntil(t Time) {
	if t < e.now {
		panic("sim: cannot run the engine backwards")
	}
	ctx := e.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	if err := e.runUntil(ctx, t); err != nil {
		panic(Abort{Err: err})
	}
}

// runUntil is the dispatch loop shared by Run and RunUntil.
// Each iteration reads the earliest deadline off the heap top, pops the
// same-instant cohort (already in priority order — no sorting, no scan of
// unrelated tickers), fires it, and re-pushes the advanced tickers.
func (e *Engine) runUntil(ctx context.Context, end Time) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	sinceCheck := 0
	for len(e.heap) > 0 && e.heap[0].next <= end {
		at := e.heap[0].next
		e.now = at
		// Pop every ticker scheduled for this instant. Heap order hands
		// them over sorted by (priority, registration), so the cohort
		// fires in exactly the order the old sorted-slice walk produced.
		cohort := e.cohort[:0]
		for len(e.heap) > 0 && e.heap[0].next == at {
			cohort = append(cohort, e.pop())
		}
		// Publish the cohort so Pause/Resume called from inside a tick can
		// tell in-cohort tickers (re-inserted by the loop below) from
		// detached ones (which Resume must append to pending).
		e.cohort = cohort
		e.firing = true
		for _, t := range cohort {
			if t == nil || t.paused {
				// Re-added or paused mid-instant by an earlier cohort
				// member: the tick is retracted before it fires.
				continue
			}
			// Advanced before Fn runs, so an Add from inside Fn keeps
			// the deadline it sets.
			t.next = at + t.Period
			t.Fn(at)
			e.steps++
			sinceCheck++
		}
		e.firing = false
		for i, t := range cohort {
			if t != nil && !t.paused {
				e.push(t)
			}
			cohort[i] = nil
		}
		e.cohort = cohort[:0]
		if len(e.pending) > 0 {
			for i, t := range e.pending {
				e.push(t)
				e.pending[i] = nil
			}
			e.pending = e.pending[:0]
		}
		if e.budget > 0 && e.steps >= e.budget {
			return &BudgetError{Steps: e.steps, Budget: e.budget, Now: e.now}
		}
		if sinceCheck >= ctxCheckEvery {
			sinceCheck = 0
			if err := ctx.Err(); err != nil {
				return err
			}
		}
	}
	e.now = end
	return nil
}
