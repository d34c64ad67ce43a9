package runner

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/experiments"
)

// Artifact is the crash record of an experiment that exhausted its
// attempts; the sweep worker ships it to the coordinator, which keeps it
// as <id>.<n>.crash.json. Its contents are deterministic functions of
// the run — IDs, seeds, options, the error chain, the recovered stack,
// and the truncated run log — so two identical failures produce
// comparable artifacts, and the Replay line reproduces the exact failing
// run.
type Artifact struct {
	Experiment string `json:"experiment"`
	Title      string `json:"title"`
	// Seed is the sweep's base seed; AttemptSeeds lists the seed of
	// every attempt in order (the last one is the failing run Replay
	// points at).
	Seed         uint64   `json:"seed"`
	AttemptSeeds []uint64 `json:"attempt_seeds"`
	Quick        bool     `json:"quick"`
	Attempts     int      `json:"attempts"`

	Error string `json:"error"`
	// Panic and Abandoned classify the failure; Stack is the recovered
	// goroutine stack for panics.
	Panic     bool   `json:"panic,omitempty"`
	Abandoned bool   `json:"abandoned,omitempty"`
	Stack     string `json:"stack,omitempty"`
	// Log is the tail of the run's progress log (the experiment's sweep
	// checkpoints plus the runner's retry notes).
	Log string `json:"log,omitempty"`
	// Replay is the ufsim invocation that reproduces the failing
	// attempt.
	Replay string `json:"replay"`
}

// crashArtifact assembles the artifact for a failed report.
func crashArtifact(cfg Config, e experiments.Experiment, seeds []uint64, rep Report, log string) *Artifact {
	a := &Artifact{
		Experiment:   e.ID,
		Title:        e.Title,
		Seed:         cfg.Seed,
		AttemptSeeds: seeds,
		Quick:        cfg.Quick,
		Attempts:     rep.Attempts,
		Abandoned:    rep.Abandoned,
		Log:          log,
		Replay:       replayCommand(e.ID, rep.Seed, cfg.Quick),
	}
	if rep.Err != nil {
		a.Error = rep.Err.Error()
		var pe *PanicError
		if errors.As(rep.Err, &pe) {
			a.Panic = true
			a.Stack = string(pe.Stack)
		}
	}
	return a
}

// replayCommand is the single-experiment invocation that reproduces the
// failing attempt.
func replayCommand(id string, seed uint64, quick bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "ufsim -experiment %s -seed %#x", id, seed)
	if quick {
		b.WriteString(" -quick")
	}
	return b.String()
}
