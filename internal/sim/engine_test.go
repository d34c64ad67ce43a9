package sim

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"
)

// The engine is checked against refEngine, a reference that visits every
// instant of the unit grid and fires the tickers due there in (priority,
// registration) order: the sorted-slice dispatcher the heap replaced,
// with the Pause/Resume contract. A script of calls — Add, Pause,
// Resume, Run, RunUntil, SetStepBudget, Bind, cancel, Reset, and the same
// calls issued from inside a ticker's Fn — drives both; after every
// top-level call the firing trace, Now, Steps, NextDeadline, each
// ticker's Paused flag and any abort cause must agree. Scripts address
// engSlots tickers, count time in engUnit and stop at engHorizon units.
// FuzzEngine decodes scripts from bytes; engineSeeds holds the named
// scripts that plain `go test` replays.
const (
	engSlots   = 8
	engUnit    = Millisecond
	engHorizon = 4096
	engMaxOps  = 64
)

type engKind byte

const (
	opAdd      engKind = iota // slot a, period b%16+1, phase c%16, priority (c>>4)%4-1
	opPause                   // slot a
	opResume                  // slot a
	opRun                     // Run(a|b<<8 units), clipped at the horizon
	opRunUntil                // RunUntil(a|b<<8 units, mod the horizon); skipped if in the past
	opBudget                  // SetStepBudget(Steps()+(a|b<<8)); 0 disarms
	opBind                    // a odd: bind a fresh cancellable context; even: unbind
	opCancel                  // cancel the last bound context
	opReset                   // Reset
	opHook                    // slot a's firing number b%8 (0: every firing) issues the next op from its Fn
	engKinds
)

type engOp struct {
	kind    engKind
	a, b, c byte
}

// engArity is how many of a, b, c each call reads.
var engArity = [engKinds]int{opAdd: 3, opPause: 1, opResume: 1, opRun: 2, opRunUntil: 2, opBudget: 2, opBind: 1, opHook: 2}

// decodeEngine reads one call per byte from the front of data and each
// call's operands from the back, last byte first. A byte the fuzzer
// inserts or deletes therefore adds or drops one call, or shifts the
// operands, instead of misaligning every later call.
func decodeEngine(data []byte) []engOp {
	var ops []engOp
	end := len(data)
	for i := 0; i < end && len(ops) < engMaxOps; i++ {
		op := engOp{kind: engKind(data[i] % byte(engKinds))}
		for _, arg := range []*byte{&op.a, &op.b, &op.c}[:engArity[op.kind]] {
			if end > i+1 {
				end--
				*arg = data[end]
			}
		}
		ops = append(ops, op)
	}
	return ops
}

// engineAPI is the surface a script drives: *Engine itself, or the
// reference.
type engineAPI interface {
	Add(t *Ticker)
	Pause(t *Ticker)
	Resume(t *Ticker)
	Run(d Time)
	RunUntil(t Time)
	SetStepBudget(n int64)
	Bind(ctx context.Context)
	Reset()
	Now() Time
	Steps() int64
	NextDeadline() (Time, bool)
}

// abortCause runs f and returns the cause of the Abort it panicked with.
func abortCause(f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			cause, ok := AbortCause(r)
			if !ok {
				panic(r)
			}
			err = cause
		}
	}()
	f()
	return nil
}

// Where the reference holds a ticker.
const (
	refOff     = iota // paused, or dropped by Reset
	refHeld           // scheduled at next
	refPending        // added or resumed mid-instant: scheduled once it completes
	refCohort         // due at the instant being dispatched
)

type refTicker struct {
	next  Time
	seq   uint64
	where int
}

// refEngine is the reference engine. It keeps a ticker's pause in the
// ticker's own flag, which Paused reports, and all else in tk. Add
// replaces the ticker's record, which retracts it wherever it was held.
type refEngine struct {
	tk            map[*Ticker]*refTicker
	seq           uint64
	at            Time
	nsteps, limit int64
	firing        bool
	ctx           context.Context
}

func (m *refEngine) Add(t *Ticker) {
	where := refHeld
	if m.firing {
		where = refPending
	}
	t.paused = false
	m.tk[t] = &refTicker{next: m.at + t.Phase + t.Period, seq: m.seq, where: where}
	m.seq++
}

func (m *refEngine) Pause(t *Ticker) {
	if r := m.tk[t]; !t.paused {
		t.paused = true
		if r.where != refCohort {
			r.where = refOff
		}
	}
}

func (m *refEngine) Resume(t *Ticker) {
	r := m.tk[t]
	if !t.paused {
		return
	}
	t.paused = false
	for r.next <= m.at {
		r.next += t.Period
	}
	switch {
	case r.where == refCohort: // re-armed when the instant completes
	case m.firing:
		r.where = refPending
	default:
		r.where = refHeld
	}
}

func (m *refEngine) Run(d Time) { m.RunUntil(m.at + d) }

func (m *refEngine) RunUntil(end Time) {
	if err := m.runUntil(end); err != nil {
		panic(Abort{Err: err})
	}
}

func (m *refEngine) runUntil(end Time) error {
	ctx := m.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	sinceCheck := 0
	for at := m.at + engUnit; at <= end; at += engUnit {
		var cohort []*Ticker
		for t, r := range m.tk {
			if r.where == refHeld && r.next == at {
				r.where = refCohort
				cohort = append(cohort, t)
			}
		}
		if len(cohort) == 0 {
			continue
		}
		sort.Slice(cohort, func(x, y int) bool {
			a, b := cohort[x], cohort[y]
			return a.Priority < b.Priority || a.Priority == b.Priority && m.tk[a].seq < m.tk[b].seq
		})
		m.at, m.firing = at, true
		for _, t := range cohort {
			if r := m.tk[t]; r.where == refCohort && !t.paused {
				r.next = at + t.Period
				t.Fn(at)
				m.nsteps++
				sinceCheck++
			}
		}
		m.firing = false
		for t, r := range m.tk {
			if r.where == refPending || r.where == refCohort && !t.paused {
				r.where = refHeld
			} else if r.where == refCohort {
				r.where = refOff
			}
		}
		if m.limit > 0 && m.nsteps >= m.limit {
			return &BudgetError{Steps: m.nsteps, Budget: m.limit, Now: m.at}
		}
		if sinceCheck >= ctxCheckEvery {
			sinceCheck = 0
			if err := ctx.Err(); err != nil {
				return err
			}
		}
	}
	m.at = end
	return nil
}

func (m *refEngine) Reset() {
	for _, r := range m.tk {
		r.where = refOff
	}
	m.at, m.seq, m.nsteps, m.limit, m.firing, m.ctx = 0, 0, 0, 0, false, nil
}

func (m *refEngine) SetStepBudget(n int64)    { m.limit = n }
func (m *refEngine) Bind(ctx context.Context) { m.ctx = ctx }
func (m *refEngine) Now() Time                { return m.at }
func (m *refEngine) Steps() int64             { return m.nsteps }

func (m *refEngine) NextDeadline() (next Time, ok bool) {
	for _, r := range m.tk {
		if r.where == refHeld && (!ok || r.next < next) {
			next, ok = r.next, true
		}
	}
	return next, ok
}

// enginePlayer runs a script against one engine and records what it
// observes. Calls the engine's contract leaves undefined are skipped,
// identically for both engines: Pause/Resume of a ticker not added since
// the last Reset, and Run, RunUntil and Reset from inside a Fn.
type enginePlayer struct {
	api    engineAPI
	tk     [engSlots]*Ticker
	trace  []string
	fired  [engSlots]int
	added  [engSlots]bool
	hooks  map[[2]int][]engOp
	inFn   int
	cancel context.CancelFunc
}

func newEnginePlayer(api engineAPI) *enginePlayer {
	p := &enginePlayer{api: api, hooks: map[[2]int][]engOp{}, cancel: func() {}}
	for i := range p.tk {
		p.tk[i] = &Ticker{Name: fmt.Sprint("t", i), Fn: func(at Time) { p.fire(i, at) }}
	}
	return p
}

func (p *enginePlayer) fire(slot int, at Time) {
	p.fired[slot]++
	p.trace = append(p.trace, fmt.Sprintf("t%d@%v", slot, at))
	p.inFn++
	for _, n := range []int{p.fired[slot], 0} {
		for _, op := range p.hooks[[2]int{slot, n}] {
			p.do(op)
		}
	}
	p.inFn--
}

// do issues one call and returns its abort cause, if any.
func (p *enginePlayer) do(op engOp) error {
	slot := int(op.a % engSlots)
	wide := Time(op.a) | Time(op.b)<<8
	switch op.kind {
	case opAdd:
		t := p.tk[slot]
		p.added[slot] = true
		t.Period, t.Phase, t.Priority = Time(op.b%16+1)*engUnit, Time(op.c%16)*engUnit, int(op.c>>4)%4-1
		p.api.Add(t)
	case opPause, opResume:
		if !p.added[slot] {
			return nil
		}
		if op.kind == opPause {
			p.api.Pause(p.tk[slot])
		} else {
			p.api.Resume(p.tk[slot])
		}
	case opRun:
		if p.inFn == 0 {
			return abortCause(func() { p.api.Run(min(wide*engUnit, engHorizon*engUnit-p.api.Now())) })
		}
	case opRunUntil:
		if at := wide % (engHorizon + 1) * engUnit; p.inFn == 0 && at >= p.api.Now() {
			return abortCause(func() { p.api.RunUntil(at) })
		}
	case opBudget:
		if wide == 0 {
			p.api.SetStepBudget(0)
		} else {
			p.api.SetStepBudget(p.api.Steps() + int64(wide))
		}
	case opBind:
		var ctx context.Context
		if op.a%2 == 1 {
			ctx, p.cancel = context.WithCancel(context.Background())
		}
		p.api.Bind(ctx)
	case opCancel:
		p.cancel()
	case opReset:
		if p.inFn == 0 {
			p.api.Reset()
			p.added = [engSlots]bool{}
		}
	}
	return nil
}

// play runs the script and returns one observation line per top-level
// call, each with the firings it caused.
func (p *enginePlayer) play(ops []engOp) []string {
	var obs []string
	for i := 0; i < len(ops); i++ {
		op := ops[i]
		var err error
		if op.kind == opHook {
			if i++; i < len(ops) && ops[i].kind != opHook {
				key := [2]int{int(op.a % engSlots), int(op.b % 8)}
				p.hooks[key] = append(p.hooks[key], ops[i])
			}
		} else {
			err = p.do(op)
		}
		next, ok := p.api.NextDeadline()
		var paused []int
		for s, t := range p.tk {
			if t.Paused() {
				paused = append(paused, s)
			}
		}
		obs = append(obs, fmt.Sprintf("%v: fired [%s] now=%v steps=%d next=%v,%v paused=%v err=%v",
			op, strings.Join(p.trace, " "), p.api.Now(), p.api.Steps(), next, ok, paused, err))
		p.trace = p.trace[:0]
	}
	p.cancel()
	return obs
}

func checkEngine(t *testing.T, ops []engOp) {
	t.Helper()
	got := newEnginePlayer(NewEngine()).play(ops)
	want := newEnginePlayer(&refEngine{tk: map[*Ticker]*refTicker{}}).play(ops)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("call %d diverged from the reference\nengine:    %s\nreference: %s\nscript: %v", i, got[i], want[i], ops)
		}
	}
}

func FuzzEngine(f *testing.F) {
	var names []string
	for name := range engineSeeds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.Add(engineSeeds[name])
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkEngine(t, decodeEngine(data)) })
}

// Script builders for the named seeds. Times are in engUnit (ms).
func add(slot, period, phase, prio int) engOp {
	return engOp{opAdd, byte(slot), byte(period - 1), byte(phase | (prio+1)<<4)}
}
func pause(slot int) engOp   { return engOp{kind: opPause, a: byte(slot)} }
func resume(slot int) engOp  { return engOp{kind: opResume, a: byte(slot)} }
func run(d int) engOp        { return engOp{opRun, byte(d), byte(d >> 8), 0} }
func runUntil(t int) engOp   { return engOp{opRunUntil, byte(t), byte(t >> 8), 0} }
func budget(n int) engOp     { return engOp{opBudget, byte(n), byte(n >> 8), 0} }
func bindCancellable() engOp { return engOp{kind: opBind, a: 1} }
func cancelCtx() engOp       { return engOp{kind: opCancel} }
func reset() engOp           { return engOp{kind: opReset} }

// on issues call from slot's nth firing (0: every firing).
func on(slot, n int, call engOp) []engOp {
	return []engOp{{kind: opHook, a: byte(slot), b: byte(n)}, call}
}

// script encodes calls and on(...) pairs as FuzzEngine's input bytes.
func script(parts ...any) []byte {
	var calls, operands []byte
	for _, p := range parts {
		ops, ok := p.([]engOp)
		if !ok {
			ops = []engOp{p.(engOp)}
		}
		for _, op := range ops {
			calls = append(calls, byte(op.kind))
			operands = append(operands, []byte{op.a, op.b, op.c}[:engArity[op.kind]]...)
		}
	}
	for i := len(operands) - 1; i >= 0; i-- {
		calls = append(calls, operands[i])
	}
	return calls
}

// engineSeeds are the named seed scripts, keyed by the test that replays
// each. Every one was a hand-written scenario test; the reference now
// states the expected outcome.
var engineSeeds = map[string][]byte{
	// Ticks fall in (start, start+d]; Now lands on the window's end.
	"TestEngineFiresInWindow": script(add(0, 10, 0, 0), run(35)),
	"TestEngineTimeAdvances":  script(add(0, 3, 0, 0), run(10)),
	"TestEngineRunResumes":    script(add(0, 4, 0, 0), run(6), run(6)),
	// Same-instant tickers fire by priority, then registration order.
	"TestEnginePriorityOrderAtSameInstant": script(add(0, 1, 0, 2), add(1, 1, 0, -1), run(1)),
	"TestEngineTickOrdering":               script(add(0, 10, 0, 2), add(1, 5, 0, 0), run(10)),
	// A mid-instant Add joins once the instant completes, at
	// now+Phase+Period, whatever its priority.
	"TestEngineAddDuringRun": script(add(0, 10, 0, 0), on(0, 1, add(1, 3, 0, -1)), run(20)),
	"TestEngineAddDuringRunNoDoubleFire": script(add(0, 1, 0, 0), add(1, 1, 0, 1), add(2, 1, 0, 2),
		on(0, 1, add(3, 1, 0, -1)), run(4)),
	// Cancellation is checked before a run and every ctxCheckEvery ticks;
	// the engine stops on a dispatched instant and resumes cleanly.
	"TestEngineRunContextCancel": script(bindCancellable(), add(0, 1, 0, 0), add(1, 1, 0, 1),
		on(1, 7, cancelCtx()), run(1000), engOp{kind: opBind}, run(10)),
	"TestEngineRunContextPreCancelled": script(add(0, 1, 0, 0), bindCancellable(), cancelCtx(), run(1000)),
	"TestEngineBindContext":            script(bindCancellable(), cancelCtx(), add(0, 1, 0, 0), run(1000)),
	// The watchdog counts fired ticks only and stops on the tripping
	// instant; a skipped-over idle stretch costs nothing.
	"TestEngineStepBudget":                  script(add(0, 1, 0, 0), budget(1000), run(4000)),
	"TestEngineRunPanicsWithAbortWhenBound": script(add(0, 1, 0, 0), budget(10), run(1000), run(1000)),
	"TestEngineBudgetCountsFiredTicksOnly":  script(add(0, 100, 0, 0), budget(50), run(4000)),
	// A paused ticker leaves the schedule and NextDeadline.
	"TestEnginePauseStopsFiring": script(add(0, 10, 0, 0), run(25), pause(0), run(100)),
	"TestEngineNextDeadline":     script(add(0, 3, 0, 0), add(1, 10, 0, 0), pause(0)),
	// Resume re-arms on the original grid, strictly after now.
	"TestEnginePauseResumeKeepsGrid":        script(add(0, 10, 0, 0), run(25), pause(0), run(52), resume(0), run(25)),
	"TestEngineResumeOnBoundaryExcludesNow": script(add(0, 10, 0, 0), run(10), pause(0), run(30), resume(0), run(10)),
	"TestEnginePauseResumeNoDoubleFire":     script(add(0, 10, 0, 0), run(5), pause(0), resume(0), resume(0), run(10)),
	// A ticker may pause itself from its Fn; other cohort members still
	// fire, and a cohort member paused before its turn is retracted.
	"TestEnginePauseSelfDuringTick": script(add(0, 10, 0, 0), on(0, 3, pause(0)), run(100), resume(0), run(10)),
	"TestEnginePauseOtherCohortMember": script(add(0, 1, 0, 0), add(1, 1, 0, 2), on(0, 1, pause(1)),
		run(2), resume(1), run(1)),
	// Resume from a Fn joins once the instant completes, like Add.
	"TestEngineResumeDuringDispatch": script(add(0, 10, 0, 0), run(15), pause(0), add(1, 7, 0, 0),
		on(1, 1, resume(0)), run(30)),
	// Pause and Resume in the ticker's own instant collapse to a no-op.
	"TestEnginePauseResumeSameInstant": script(add(0, 10, 0, 0), add(1, 10, 0, 2),
		on(0, 0, pause(0)), on(1, 0, resume(0)), run(30)),
	// The same collapse, once only: Resume's cohort-membership check is
	// all that stops the ticker being scheduled twice from then on.
	"TestEngineResumeInOwnInstantSchedulesOnce": script(add(0, 10, 0, 0), add(1, 10, 0, 2),
		on(0, 1, pause(0)), on(1, 1, resume(0)), run(50)),
	// Pausing a ticker added in the same instant: it never fires.
	"TestEnginePausePendingAdd": script(add(0, 1, 0, 0), on(0, 1, add(1, 1, 0, 0)), on(0, 1, pause(1)), run(5)),
	// Add re-registers a held ticker: it is retracted from this
	// instant's cohort, paused or not, and fires once per instant from
	// now+Phase+Period on, also when it re-adds itself from its Fn.
	"TestEngineReAddPausedCohortMember": script(add(0, 10, 0, 0), add(1, 10, 0, 1),
		on(0, 1, pause(1)), on(0, 1, add(1, 10, 0, 1)), run(30)),
	"TestEngineAddSelfDuringTick": script(add(0, 10, 0, 0), on(0, 1, add(0, 3, 0, 0)), run(30)),
	// Reset keeps a ticker's pause; a fresh Add clears it.
	"TestEngineAddClearsPause": script(add(0, 10, 0, 0), pause(0), reset(), add(0, 10, 0, 0), run(10)),
	// RunUntil between deadlines keeps the grid; only due ticks count.
	"TestEngineRunUntilBetweenDeadlines": script(add(0, 10, 0, 0), runUntil(25), runUntil(41), runUntil(4000)),
}

// replayEngine checks the named seed of the calling test.
func replayEngine(t *testing.T) {
	t.Helper()
	data, ok := engineSeeds[t.Name()]
	if !ok {
		t.Fatalf("no engine seed named %s", t.Name())
	}
	checkEngine(t, decodeEngine(data))
}

func TestEngineFiresInWindow(t *testing.T)                   { replayEngine(t) }
func TestEngineTimeAdvances(t *testing.T)                    { replayEngine(t) }
func TestEngineRunResumes(t *testing.T)                      { replayEngine(t) }
func TestEnginePriorityOrderAtSameInstant(t *testing.T)      { replayEngine(t) }
func TestEngineTickOrdering(t *testing.T)                    { replayEngine(t) }
func TestEngineAddDuringRun(t *testing.T)                    { replayEngine(t) }
func TestEngineAddDuringRunNoDoubleFire(t *testing.T)        { replayEngine(t) }
func TestEngineRunContextCancel(t *testing.T)                { replayEngine(t) }
func TestEngineRunContextPreCancelled(t *testing.T)          { replayEngine(t) }
func TestEngineBindContext(t *testing.T)                     { replayEngine(t) }
func TestEngineStepBudget(t *testing.T)                      { replayEngine(t) }
func TestEngineRunPanicsWithAbortWhenBound(t *testing.T)     { replayEngine(t) }
func TestEngineBudgetCountsFiredTicksOnly(t *testing.T)      { replayEngine(t) }
func TestEnginePauseStopsFiring(t *testing.T)                { replayEngine(t) }
func TestEngineNextDeadline(t *testing.T)                    { replayEngine(t) }
func TestEnginePauseResumeKeepsGrid(t *testing.T)            { replayEngine(t) }
func TestEngineResumeOnBoundaryExcludesNow(t *testing.T)     { replayEngine(t) }
func TestEnginePauseResumeNoDoubleFire(t *testing.T)         { replayEngine(t) }
func TestEnginePauseSelfDuringTick(t *testing.T)             { replayEngine(t) }
func TestEnginePauseOtherCohortMember(t *testing.T)          { replayEngine(t) }
func TestEngineResumeDuringDispatch(t *testing.T)            { replayEngine(t) }
func TestEnginePauseResumeSameInstant(t *testing.T)          { replayEngine(t) }
func TestEngineResumeInOwnInstantSchedulesOnce(t *testing.T) { replayEngine(t) }
func TestEnginePausePendingAdd(t *testing.T)                 { replayEngine(t) }
func TestEngineAddClearsPause(t *testing.T)                  { replayEngine(t) }
func TestEngineReAddPausedCohortMember(t *testing.T)         { replayEngine(t) }
func TestEngineAddSelfDuringTick(t *testing.T)               { replayEngine(t) }
func TestEngineRunUntilBetweenDeadlines(t *testing.T)        { replayEngine(t) }

func TestEnginePanicsOnBadTicker(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("zero-period ticker did not panic")
		}
	}()
	e.Add(&Ticker{Name: "bad", Period: 0, Fn: func(Time) {}})
}
