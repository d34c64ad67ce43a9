package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"os"

	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/system"
)

// characterize: one pass of the §3 characterisation grid per op, every
// experiment in quick mode through runner.RunOne with one shared
// system.Pool, each report rendered. Many short settle-dominated trials
// on pooled, Reset machines; the receiver and the ARQ are never used.

// characterizeIDs is the §3 grid in pass order.
var characterizeIDs = []string{"fig3", "fig4", "fig5", "fig6", "fig7", "sec32"}

const (
	goldenSeed = 0x5eed
	goldenPath = "internal/experiments/testdata/golden_fig3_quick.txt"
)

func init() {
	register(workload{
		name:      "characterize",
		setupReps: 3,
		perSecond: 2.8,
		setup:     setupCharacterize,
		layers:    characterizeLayers,
	})
}

// characterizeOps generates the seeds of n passes; pass i does not
// depend on n.
func characterizeOps(seed uint64, n int) []uint64 {
	rng := rand.New(rand.NewPCG(seed, 0xC4A7))
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = rng.Uint64()
	}
	return seeds
}

type characterizeEnv struct {
	pool     *system.Pool
	exps     []experiments.Experiment
	seeds    []uint64
	failures []string
}

func setupCharacterize(cfg config) (env, error) {
	e := &characterizeEnv{pool: &system.Pool{}, seeds: characterizeOps(cfg.seed, cfg.rounds)}
	for _, id := range characterizeIDs {
		x, ok := experiments.Get(id)
		if !ok {
			return nil, fmt.Errorf("experiment %q is not registered", id)
		}
		e.exps = append(e.exps, x)
	}
	// The golden-seed fig3 report must match the committed golden byte
	// for byte; the file is only read.
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		return nil, err
	}
	if got, ok := e.render(e.exps[0], goldenSeed, nil, 0, 0); !ok || !bytes.Equal(got, want) {
		e.failures = append(e.failures, "fig3 at the golden seed does not match "+goldenPath)
	}
	if r := e.pass(characterizeOps(warmupSeed, 1)[0], nil, 0); r.failed > 0 {
		e.failures = append(e.failures, "warm-up pass failed")
	}
	return e, nil
}

func (e *characterizeEnv) run(i int, tr *tracer) round { return e.pass(e.seeds[i], tr, uint64(i+1)) }

func (e *characterizeEnv) setupFailures() []string { return e.failures }

func (e *characterizeEnv) close() {}

// pass runs the grid once at seed.
func (e *characterizeEnv) pass(seed uint64, tr *tracer, trace uint64) round {
	r := round{attempted: 1, counts: map[string]float64{}}
	w := startWindow()
	id := tr.open("characterize.pass", trace, 0)
	ran, rendered := true, true
	var outs [][]byte
	for _, x := range e.exps {
		out, ok := e.render(x, seed, tr, trace, id)
		ran = ran && ok
		rendered = rendered && (!ok || len(out) > 0)
		outs = append(outs, out)
	}
	tr.close(id)
	w.stop(&r)
	switch {
	case !ran:
		r.failed = 1
	case !rendered:
		r.failed, r.incorrect = 1, 1
	default:
		r.units = 1
	}
	for _, out := range outs {
		h := fnv.New64a()
		h.Write(out)
		r.sim = append(r.sim, h.Sum64())
	}
	r.counts["pool_size"] = float64(e.pool.Size())
	return r
}

// render runs one experiment through the supervised runner and renders
// its report. With a tracer, RunOne and the experiment's own Run (the
// field RunOne calls) each get a span.
func (e *characterizeEnv) render(x experiments.Experiment, seed uint64, tr *tracer, trace, parent uint64) ([]byte, bool) {
	run := tr.open("runner.run_one", trace, parent)
	if tr != nil {
		inner := x.Run
		name := "exp." + x.ID
		x.Run = func(o experiments.Options) (experiments.Result, error) {
			id := tr.open(name, trace, run)
			defer tr.close(id)
			return inner(o)
		}
	}
	rep := runner.RunOne(context.Background(), runner.Config{Seed: seed, Quick: true}, x, e.pool)
	tr.close(run)
	if rep.Status != runner.StatusDone {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %s: %v\n", x.ID, seed, rep.Status, rep.Err)
		return nil, false
	}
	id := tr.open("exp.render", trace, parent)
	defer tr.close(id)
	var buf bytes.Buffer
	if err := rep.Result.Render(&buf); err != nil {
		return nil, false
	}
	return buf.Bytes(), true
}

func characterizeLayers(lm layerMetrics, plain, traced []round, ix spanIndex) {
	n := float64(len(traced))
	lm["runner.self_s"] = ix.self("runner.run_one") / n
	for _, id := range characterizeIDs {
		lm["exp."+id+"_s"] = ix.total("exp."+id) / n
	}
	lm["exp.render_ms"] = ix.total("exp.render") * 1e3 / n
	lm["system.pool_size"] = traced[len(traced)-1].counts["pool_size"]
}
