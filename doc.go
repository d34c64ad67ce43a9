// Package repro is a full Go reproduction of "Uncore Encore: Covert
// Channels Exploiting Uncore Frequency Scaling" (Guo, Cao, Xin, Zhang,
// Yang — MICRO 2023).
//
// The paper's platform — a dual-socket Intel Xeon Gold 6142 system with
// its undocumented uncore-frequency-scaling (UFS) power management — is
// rebuilt as a deterministic discrete-event simulator, and the paper's
// entire evaluation runs against it:
//
//   - internal/topo, internal/mesh, internal/cache, internal/cpu,
//     internal/msr and internal/ufs model the hardware: the Figure 2
//     floorplan, the mesh interconnect, the three-level cache hierarchy,
//     core P/C-states, the MSR interface, and the UFS governor fitted to
//     the paper's §3 characterisation.
//   - internal/system composes them into the running machine;
//     internal/workload provides the paper's loops (Listings 1–3),
//     stressors and victims.
//   - internal/channel/ufvariation is the paper's contribution: the
//     UF-variation covert channel (Algorithm 1); internal/channel/baselines
//     holds the ten prior channels of Table 3; internal/defense the
//     mitigations; internal/sidechannel the §5 attacks.
//   - internal/experiments regenerates every table and figure; cmd/ufsim
//     is the command-line front end; BenchmarkExperiments in this
//     package (bench_test.go) times one quick run of every catalog entry.
//
// See README.md for a quickstart, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for paper-vs-measured results.
package repro
