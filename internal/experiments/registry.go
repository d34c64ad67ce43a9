// Package experiments regenerates every table and figure of the paper's
// evaluation. Each trial draws a simulated platform through
// Options.machine (fresh, or recycled from the run's pool), runs the
// paper's workload, and renders the same rows/series the paper reports.
// The per-experiment index lives in DESIGN.md; paper-vs-measured numbers
// are recorded in EXPERIMENTS.md.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"repro/internal/system"
)

// Options tune an experiment run.
type Options struct {
	// Seed fixes all randomness; every experiment is deterministic in
	// it.
	Seed uint64
	// Quick shrinks trial counts and sweep densities for smoke tests
	// and benchmarks; headline shapes are preserved.
	Quick bool

	// Context, when non-nil, bounds the run: every machine an
	// experiment builds is bound to it (cancellation reaches the engine
	// hot loop), and experiments check it between sweep points so a
	// cancelled run returns ctx.Err() instead of finishing the sweep.
	// Nil means context.Background() — no deadline, matching the
	// recorded results.
	Context context.Context
	// Log, when non-nil, receives the experiment's progress lines
	// (sweep checkpoints); the runner captures it into crash artifacts.
	Log io.Writer
	// MaxEngineSteps, when positive, arms every machine's step watchdog
	// so a runaway simulation fails with sim.ErrBudgetExceeded instead
	// of spinning. The budget is per machine, not per experiment.
	MaxEngineSteps int64
	// Machines, when non-nil, recycles platform machines across the
	// run's trials: Options.machine draws from the pool and experiments
	// hand finished machines back through Release. Machine.Reset makes a
	// recycled machine bit-identical to a fresh one, so pooling changes
	// only the allocation profile, never the results. Nil builds a fresh
	// machine per trial.
	Machines *system.Pool
}

// DefaultOptions returns the options used for the recorded results.
func DefaultOptions() Options { return Options{Seed: 0x5eed} }

// Ctx returns the run's context, defaulting to context.Background().
func (o Options) Ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

// Err reports whether the run has been cancelled; experiments call it
// between sweep points and return the error unchanged.
func (o Options) Err() error { return o.Ctx().Err() }

// Checkpoint is the audit hook placed between sweep points: it logs the
// stage about to run and returns the cancellation error, if any. The
// stage line lands in the runner's per-run log, so a crash artifact shows
// how far the sweep got.
func (o Options) Checkpoint(format string, args ...any) error {
	o.Logf(format, args...)
	return o.Err()
}

// Logf writes one progress line to the run's log, if any.
func (o Options) Logf(format string, args ...any) {
	if o.Log == nil {
		return
	}
	fmt.Fprintf(o.Log, format+"\n", args...)
}

// machine returns a trial machine built from cfg — recycled from the
// run's pool when it holds a compatible one, fresh otherwise — bound to
// the run's context and step budget, so a deadline or budget reaches the
// engine hot loop. Every experiment machine comes from here.
func (o Options) machine(cfg system.Config) *system.Machine {
	m := o.Machines.Get(cfg)
	if o.Context != nil {
		m.Bind(o.Context)
	}
	if o.MaxEngineSteps > 0 {
		m.SetStepBudget(o.MaxEngineSteps)
	}
	return m
}

// Release hands a finished trial machine back to the run's pool; with
// no pool it is a no-op and the machine is left to the collector. Call
// it only once nothing downstream retains the machine — results must
// have been copied out of any machine-owned state.
func (o Options) Release(m *system.Machine) {
	o.Machines.Put(m)
}

// Result is a rendered experiment outcome.
type Result interface {
	// Render writes a human-readable reproduction of the paper
	// artefact.
	Render(w io.Writer) error
}

// Experiment regenerates one paper artefact.
type Experiment struct {
	// ID is the index key, e.g. "fig3" or "tab2".
	ID string
	// Title describes the artefact.
	Title string
	// Run executes the experiment.
	Run func(Options) (Result, error)
}

var registry = map[string]Experiment{}

// register adds an experiment; duplicate IDs are a programming error.
func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic(fmt.Sprintf("experiments: duplicate id %q", e.ID))
	}
	registry[e.ID] = e
}

// Get returns the experiment with the given ID.
func Get(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// All returns every registered experiment sorted by ID.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
