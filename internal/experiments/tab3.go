package experiments

import (
	"fmt"
	"io"

	"repro/internal/channel"
	"repro/internal/channel/baselines"
	"repro/internal/channel/ufvariation"
	"repro/internal/defense"
	"repro/internal/mesh"
	"repro/internal/sim"
	"repro/internal/system"
)

// Tab3Columns are the Table 3 environments, in paper order.
var Tab3Columns = []string{
	"no-shared-mem", "no-clflush", "no-tsx",
	"randomized-llc", "fine-partition", "coarse-partition", "stress-ng-4",
}

// tab3Env builds the environment for a column: the permissive baseline
// with exactly one prerequisite removed or defence deployed.
func tab3Env(col string) defense.Env {
	e := defense.Baseline()
	switch col {
	case "no-shared-mem":
		e.SharedMemory = false
	case "no-clflush":
		e.CLFlush = false
	case "no-tsx":
		e.TSX = false
	case "randomized-llc":
		e.RandomizedLLC = true
	case "fine-partition":
		e.FinePartition = true
	case "coarse-partition":
		e.CoarsePartition = true
	case "stress-ng-4":
		e.StressThreads = 4
	default:
		panic("experiments: unknown tab3 column " + col)
	}
	return e
}

// Tab3Expected is the paper's Table 3 ✓/✗ matrix (true = functional).
var Tab3Expected = map[string][7]bool{
	"Flush+Reload":    {false, false, true, true, false, false, true},
	"Flush+Flush":     {false, false, true, true, false, false, true},
	"Reload+Refresh":  {false, false, true, false, false, false, true},
	"Prime+Probe":     {true, true, true, false, false, false, true},
	"Prime+Abort":     {true, true, false, false, false, false, true},
	"SPP":             {true, true, true, true, false, false, true},
	"Mesh-contention": {true, true, true, true, false, false, true},
	"Ring-contention": {true, true, true, true, false, false, true},
	"IccCoresCovert":  {true, true, true, true, true, false, true},
	"Uncore-idle":     {true, true, true, true, true, true, false},
	"UF-variation":    {true, true, true, true, true, true, true},
}

// Tab3Cell is one evaluated matrix cell.
type Tab3Cell struct {
	BER        float64
	Functional bool
}

// Tab3Result is the reproduced Table 3.
type Tab3Result struct {
	Rows    []string
	Columns []string
	Cells   map[string][]Tab3Cell
}

// Render implements Result.
func (r Tab3Result) Render(w io.Writer) error {
	fmt.Fprintln(w, "Table 3: channel functionality under prerequisites and defences (✓ functional / ✗ not)")
	fmt.Fprint(w, "channel")
	for _, c := range r.Columns {
		fmt.Fprintf(w, "\t%s", c)
	}
	fmt.Fprintln(w)
	for _, row := range r.Rows {
		fmt.Fprint(w, row)
		for _, cell := range r.Cells[row] {
			mark := "x"
			if cell.Functional {
				mark = "OK"
			}
			fmt.Fprintf(w, "\t%s(%.2f)", mark, cell.BER)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// tab3Bits is the payload length per cell.
func tab3Bits(opts Options) int {
	if opts.Quick {
		return 24
	}
	return 48
}

// ufVariationRow is Table 3's last row: UF-variation through the real
// channel implementation, on the mesh.
type ufVariationRow struct{}

func (ufVariationRow) Name() string            { return "UF-variation" }
func (ufVariationRow) Interconnect() mesh.Kind { return mesh.KindMesh }

// Run evaluates UF-variation in a Table 3 environment.
func (ufVariationRow) Run(m *system.Machine, env defense.Env, bits channel.Bits) (channel.Result, error) {
	pl := env.Placement()
	cfg := ufvariation.DefaultConfig()
	cfg.Sender = ufvariation.Placement{Socket: pl.SenderSocket, Core: pl.SenderCore}
	cfg.Receiver = ufvariation.Placement{Socket: pl.ReceiverSocket, Core: pl.ReceiverCore}
	cfg.SenderDomain, cfg.ReceiverDomain = pl.SenderDomain, pl.ReceiverDomain
	cfg.Interval = 38 * sim.Millisecond
	if pl.SenderSocket != pl.ReceiverSocket {
		cfg.Interval = 40 * sim.Millisecond
	}
	if env.StressThreads > 0 {
		// §4.3.3: under noise that dilutes the stalled fraction the
		// sender switches to the heavy traffic loop and slows down
		// (Table 2's best operating points sit at long intervals).
		cfg.UseTrafficLoop = true
		cfg.Interval = 60 * sim.Millisecond
	}
	res, err := ufvariation.Run(m, cfg, bits)
	return res.Result, err
}

// Tab3 reproduces Table 3: every channel row under every column
// environment, marking a cell functional when the received bits still
// carry the payload (BER < 0.25).
func Tab3(opts Options) (Tab3Result, error) {
	res := Tab3Result{Columns: Tab3Columns, Cells: map[string][]Tab3Cell{}}
	for _, ch := range append(baselines.All(), ufVariationRow{}) {
		res.Rows = append(res.Rows, ch.Name())
		for _, col := range Tab3Columns {
			if err := opts.Checkpoint("tab3: %s under %s", ch.Name(), col); err != nil {
				return Tab3Result{}, err
			}
			env := tab3Env(col)
			cfg := platform(opts.Seed)
			cfg.Interconnect = ch.Interconnect()
			m := opts.machine(cfg)
			env.Apply(m)
			bits := channel.RandomBits(m.Rand(sim.HashString(ch.Name()+col)), tab3Bits(opts))
			r, err := ch.Run(m, env, bits)
			if err != nil {
				return Tab3Result{}, fmt.Errorf("%s under %s: %w", ch.Name(), col, err)
			}
			opts.Release(m)
			res.Cells[ch.Name()] = append(res.Cells[ch.Name()], Tab3Cell{BER: r.BER, Functional: r.Functional()})
		}
	}
	return res, nil
}

func init() {
	register(Experiment{ID: "tab3", Title: "Channel functionality matrix under defences", Run: func(o Options) (Result, error) { return Tab3(o) }})
}
