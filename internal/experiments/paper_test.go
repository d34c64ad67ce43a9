package experiments

import (
	"math"
	"sort"
	"sync"
	"testing"

	"repro/internal/sim"
)

// paperRow is one paper claim checked on one experiment's typed result. A
// quick row reads the golden table's fresh quick run; a full row reads
// the experiment's one run per process on DefaultOptions, and is
// skipped under -short.
type paperRow struct {
	id    string
	full  func() (Result, error) // nil for a quick row
	check func(*testing.T, Result)
}

func quick[T Result](id string, check func(*testing.T, T)) paperRow {
	return paperRow{id: id, check: func(t *testing.T, res Result) { check(t, res.(T)) }}
}

func full[T Result](id string, check func(*testing.T, T)) paperRow {
	r := quick(id, check)
	r.full = sync.OnceValues(func() (Result, error) {
		e, _ := Get(id)
		return e.Run(DefaultOptions())
	})
	return r
}

// checkRow evaluates the row named after the calling test. Full rows run
// in parallel with each other, after every sequential test.
func checkRow(t *testing.T) {
	r, ok := rows[t.Name()]
	if !ok {
		t.Fatalf("no row named %s", t.Name())
	}
	if r.full == nil {
		r.check(t, quickRun(t, r.id).fresh)
		return
	}
	if testing.Short() {
		t.Skip("full-mode run in long mode only")
	}
	t.Parallel()
	res, err := r.full()
	if err != nil {
		t.Fatalf("%s: %v", r.id, err)
	}
	r.check(t, res)
}

func rowNames() []string {
	names := make([]string, 0, len(rows))
	for name := range rows {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// freqMatches compares a measured frequency (GHz) against a paper value.
// The idle operating point dithers between 1.4 and 1.5 GHz, which the
// paper reports as "staying at 1.5 GHz" (§3.1); the whole dither band
// therefore matches 1.5.
func freqMatches(got, want float64) bool {
	if want == 1.5 && got >= 1.39 && got <= 1.51 {
		return true
	}
	return math.Abs(got-want) <= 0.051
}

// rows are the paper's thresholds, keyed by the test that reports each.
// The paper tables they compare against stay beside their experiments:
// Fig3Expected, Fig4Rule, Sec61Expected, Tab3Expected.
var rows = map[string]paperRow{
	// §3: the uncore frequency governor.
	"TestFig3MatchesPaperGrid": full("fig3", func(t *testing.T, res Fig3Result) {
		for i, tt := range res.Types {
			want := Fig3Expected[tt]
			for j, n := range res.Counts {
				got := res.Freq[i][j]
				if !freqMatches(got, want[j]) {
					t.Errorf("fig3[%s][%d threads] = %.2f GHz, paper %.1f", trafficTypeName(tt), n, got, want[j])
				}
			}
		}
	}),
	"TestFig3QuickSubset": quick("fig3", func(t *testing.T, res Fig3Result) {
		// Spot-check the quick columns {1,2,7,16} against the paper grid.
		wantCols := map[int]int{1: 0, 2: 1, 7: 6, 16: 9}
		for i, tt := range res.Types {
			for j, n := range res.Counts {
				want := Fig3Expected[tt][wantCols[n]]
				if !freqMatches(res.Freq[i][j], want) {
					t.Errorf("fig3 quick [%s][%d] = %.2f, want %.1f", trafficTypeName(tt), n, res.Freq[i][j], want)
				}
			}
		}
	}),
	"TestFig4MatchesStallRule": quick("fig4", func(t *testing.T, res Fig4Result) {
		for i, s := range res.Stalled {
			for j, k := range res.Unstalled {
				if res.Freq[i][j] < 0 {
					continue
				}
				want := Fig4Rule(s, k)
				if !freqMatches(res.Freq[i][j], want) {
					t.Errorf("fig4[s=%d,k=%d] = %.2f GHz, want %.1f", s, k, res.Freq[i][j], want)
				}
			}
		}
	}),
	"TestFig5RampUp": quick("fig5", func(t *testing.T, res RampResult) {
		tr := res.Traces[0]
		// Before the switch: idle dither at 1.4/1.5 GHz.
		for _, v := range tr.Window(0, res.SwitchAt) {
			if v < 1.39 || v > 1.51 {
				t.Fatalf("pre-switch frequency %v GHz outside idle dither", v)
			}
		}
		// After the switch the frequency must reach the maximum.
		final := tr.Window(res.SwitchAt+120*sim.Millisecond, res.SwitchAt+170*sim.Millisecond)
		for _, v := range final {
			if v != 2.4 {
				t.Fatalf("post-ramp frequency %v GHz, want 2.4", v)
			}
		}
		// Steps spaced ≈10 ms (Figure 5 annotations: 9.3–10.4 ms). The
		// first spacing may exceed 10 ms because the loop start is not
		// aligned to the governor epochs, as the paper also observes.
		if len(res.StepMS) < 9 {
			t.Fatalf("only %d steps recorded: %v", len(res.StepMS), res.StepMS)
		}
		for i, s := range res.StepMS[1:] {
			if s < 9 || s > 11 {
				t.Errorf("step %d spacing %.1f ms, want ≈10", i+1, s)
			}
		}
	}),
	"TestFig6RampDown": quick("fig6", func(t *testing.T, res RampResult) {
		tr := res.Traces[0]
		// Saturated at 2.4 before the switch.
		pre := tr.Window(res.SwitchAt-20*sim.Millisecond, res.SwitchAt)
		for _, v := range pre {
			if v != 2.4 {
				t.Fatalf("pre-switch frequency %v GHz, want 2.4", v)
			}
		}
		// Back to idle dither at the end.
		post := tr.Window(res.SwitchAt+120*sim.Millisecond, res.SwitchAt+170*sim.Millisecond)
		for _, v := range post {
			if v < 1.39 || v > 1.51 {
				t.Fatalf("post-decay frequency %v GHz outside idle dither", v)
			}
		}
		// Decrease steps spaced ≈10 ms.
		for i, s := range res.StepMS {
			if i >= 9 {
				break
			}
			if s < 9 || s > 11 {
				t.Errorf("down-step %d spacing %.1f ms, want ≈10", i, s)
			}
		}
	}),
	"TestFig7CrossSocketCoupling": quick("fig7", func(t *testing.T, res RampResult) {
		t0, t1 := res.Traces[0], res.Traces[1]
		// Socket 0 saturates at 2.4; socket 1 stabilises at 2.3.
		end0 := t0.Window(res.SwitchAt+140*sim.Millisecond, res.SwitchAt+170*sim.Millisecond)
		end1 := t1.Window(res.SwitchAt+140*sim.Millisecond, res.SwitchAt+170*sim.Millisecond)
		for _, v := range end0 {
			if v != 2.4 {
				t.Fatalf("socket0 final %v GHz, want 2.4", v)
			}
		}
		for _, v := range end1 {
			if v != 2.3 {
				t.Fatalf("socket1 final %v GHz, want 2.3 (one step below)", v)
			}
		}
		// During the ramp socket 1 trails socket 0 by about one step.
		mid := res.SwitchAt + 50*sim.Millisecond
		v0 := t0.Window(mid, mid+sim.Millisecond)
		v1 := t1.Window(mid, mid+sim.Millisecond)
		if len(v0) == 0 || len(v1) == 0 {
			t.Fatal("no mid-ramp samples")
		}
		if diff := v0[0] - v1[0]; diff < 0.05 || diff > 0.25 {
			t.Errorf("mid-ramp gap socket0-socket1 = %.2f GHz, want ≈0.1–0.2", diff)
		}
		// Socket 1's first step lags socket 0's by ≈10 ms.
		first0, first1 := t0.StepTimes(), t1.StepTimes()
		var s0, s1 sim.Time
		for _, st := range first0 {
			if st > res.SwitchAt {
				s0 = st
				break
			}
		}
		for _, st := range first1 {
			if st > s0 {
				s1 = st
				break
			}
		}
		if lag := (s1 - s0).Milliseconds(); lag < 5 || lag > 15 {
			t.Errorf("follower lag %.1f ms, want ≈10", lag)
		}
	}),
	"TestSec32StallRatios": quick("sec32", func(t *testing.T, res Sec32Result) {
		if math.Abs(res.ChaseRatio-0.77) > 0.05 {
			t.Errorf("LLC chase stall ratio %.2f, paper ≈0.77", res.ChaseRatio)
		}
		if math.Abs(res.TrafficRatio-0.30) > 0.05 {
			t.Errorf("traffic stall ratio %.2f, paper ≈0.3", res.TrafficRatio)
		}
		if math.Abs(res.L2ChaseRatio-0.14) > 0.05 {
			t.Errorf("L2 chase stall ratio %.2f, paper ≈0.14", res.L2ChaseRatio)
		}
	}),
	"TestFig8LatencyShape": quick("fig8", func(t *testing.T, res Fig8Result) {
		for i, h := range res.Hops {
			// Latency decreases monotonically with frequency.
			for j := 1; j < len(res.Freqs); j++ {
				if res.Summary[i][j].Mean >= res.Summary[i][j-1].Mean {
					t.Errorf("hop %d: mean latency not decreasing: %.1f at %v vs %.1f at %v",
						h, res.Summary[i][j].Mean, res.Freqs[j], res.Summary[i][j-1].Mean, res.Freqs[j-1])
				}
			}
		}
		// Fitted anchors: 0-hop ≈58 cycles at 2.4 GHz, ≈80 at 1.5 GHz.
		find := func(h int, f sim.Freq) float64 {
			for i, hh := range res.Hops {
				if hh != h {
					continue
				}
				for j, ff := range res.Freqs {
					if ff == f {
						return res.Summary[i][j].Mean
					}
				}
			}
			t.Fatalf("missing summary for hop %d freq %v", h, f)
			return 0
		}
		if m := find(0, 24); math.Abs(m-58) > 2 {
			t.Errorf("0-hop mean at 2.4GHz = %.1f, want ≈58", m)
		}
		if m := find(0, 15); math.Abs(m-80) > 2 {
			t.Errorf("0-hop mean at 1.5GHz = %.1f, want ≈80", m)
		}
		// Farther slices are slower at equal frequency.
		if find(3, 24) <= find(0, 24) {
			t.Error("3-hop not slower than 0-hop at 2.4GHz")
		}
	}),

	// §4: the UF-variation channel.
	"TestFig9Transmission": quick("fig9", func(t *testing.T, res Fig9Result) {
		if res.Res.BER != 0 {
			t.Errorf("Figure 9 example transmission BER = %v, want 0 (sent %v, got %v)",
				res.Res.BER, res.Res.Sent, res.Res.Received)
		}
		if res.Res.Sent.String() != "1101001011" {
			t.Errorf("payload = %v, want the paper's 1101001011", res.Res.Sent)
		}
		if res.Res.Latency == nil || len(res.Res.Latency.Samples) == 0 {
			t.Error("no latency trace recorded")
		}
		// The frequency trace must span the idle point to the maximum, as
		// in Figure 9.
		vals := res.Freq.Values()
		lo, hi := vals[0], vals[0]
		for _, v := range vals {
			lo, hi = min(lo, v), max(hi, v)
		}
		// With 38 ms intervals and a longest run of two "1"s the ramp
		// reaches the 2.2–2.4 GHz region before the next "0" (each interval
		// is ≈4 governor epochs, i.e. ≈400 MHz of movement).
		if lo > 1.51 || hi < 2.25 {
			t.Errorf("frequency trace spans [%.1f, %.1f] GHz, want ≈[1.5, ≥2.3]", lo, hi)
		}
	}),
	"TestFig10Shape": quick("fig10", func(t *testing.T, res Fig10Result) {
		for _, sc := range []struct {
			name string
			pts  []Fig10Point
		}{{"cross-core", res.CrossCore}, {"cross-processor", res.CrossProcessor}} {
			if len(sc.pts) == 0 {
				t.Fatalf("%s: empty sweep", sc.name)
			}
			// Low rates (long intervals) are near error-free; the shortest
			// interval has substantially more errors (the Figure 10 knee).
			long := sc.pts[len(sc.pts)-1]
			short := sc.pts[0]
			if long.BER > 0.06 {
				t.Errorf("%s: BER %.3f at %v, want ≈0", sc.name, long.BER, long.Interval)
			}
			if short.BER < long.BER {
				t.Errorf("%s: shortest interval BER %.3f not above longest %.3f", sc.name, short.BER, long.BER)
			}
		}
		// The cross-processor channel peaks below the cross-core channel
		// (paper: 31 vs 46 bit/s).
		if PeakCapacity(res.CrossProcessor).Capacity >= PeakCapacity(res.CrossCore).Capacity {
			t.Errorf("cross-processor peak %.1f not below cross-core peak %.1f",
				PeakCapacity(res.CrossProcessor).Capacity, PeakCapacity(res.CrossCore).Capacity)
		}
	}),
	"TestFig10FullSweepPeaks": full("fig10", func(t *testing.T, res Fig10Result) {
		cc := PeakCapacity(res.CrossCore)
		cp := PeakCapacity(res.CrossProcessor)
		// Paper: cross-core capacity peaks at 46 bit/s (47.6 bit/s raw,
		// 21 ms); cross-processor at 31 bit/s (33 bit/s raw, 33 ms). The
		// reproduction must land in the same region.
		if cc.Capacity < 38 || cc.Capacity > 55 {
			t.Errorf("cross-core peak capacity %.1f bit/s, paper ≈46", cc.Capacity)
		}
		if cc.Interval < 16*sim.Millisecond || cc.Interval > 28*sim.Millisecond {
			t.Errorf("cross-core peak at %v, paper ≈21 ms", cc.Interval)
		}
		if cp.Capacity < 25 || cp.Capacity > 40 {
			t.Errorf("cross-processor peak capacity %.1f bit/s, paper ≈31", cp.Capacity)
		}
		if cp.Interval < 23*sim.Millisecond || cp.Interval > 40*sim.Millisecond {
			t.Errorf("cross-processor peak at %v, paper ≈33 ms", cp.Interval)
		}
		if cp.Capacity >= cc.Capacity {
			t.Errorf("cross-processor peak %.1f ≥ cross-core peak %.1f", cp.Capacity, cc.Capacity)
		}
	}),
	"TestFig10xVariantsAllFunctional": quick("fig10x", func(t *testing.T, res Fig10xResult) {
		if len(res.Rows) != 4 {
			t.Fatalf("%d variants", len(res.Rows))
		}
		for _, row := range res.Rows {
			// Every Algorithm 1 / §4.3.3 variant works at the paper's
			// peak operating points.
			if row.CrossCoreBER > 0.12 {
				t.Errorf("%s: cross-core BER %.3f at 21ms", row.Variant, row.CrossCoreBER)
			}
			if row.CrossProcBER > 0.12 {
				t.Errorf("%s: cross-processor BER %.3f at 33ms", row.Variant, row.CrossProcBER)
			}
		}
	}),

	// §5–§6: side channels and countermeasures.
	"TestTab2Shape": quick("tab2", func(t *testing.T, res Tab2Result) {
		if len(res.Capacity) != len(res.N) {
			t.Fatalf("ragged result")
		}
		first := res.Capacity[0]
		last := res.Capacity[len(res.Capacity)-1]
		if first < 2 {
			t.Errorf("capacity under stress-ng -1 = %.1f bit/s, want clearly functional (paper 8.6)", first)
		}
		if last > 1.5 {
			t.Errorf("capacity under stress-ng -9 = %.1f bit/s, want ≈0 (paper ~0)", last)
		}
		if last >= first {
			t.Errorf("capacity does not decline with stress threads: %v", res.Capacity)
		}
	}),
	"TestSec61Countermeasures": quick("sec61", func(t *testing.T, res Sec61Result) {
		got := map[string]bool{}
		for _, c := range res.Cases {
			got[c.Name] = c.Functional
		}
		for name, want := range Sec61Expected {
			if got[name] != want {
				t.Errorf("countermeasure %s: functional=%v, paper says %v", name, got[name], want)
			}
		}
		// §6.1: restricting the range does not reduce the capacity.
		var none, restricted float64
		for _, c := range res.Cases {
			switch c.Name {
			case "none":
				none = c.Capacity
			case "restricted-range":
				restricted = c.Capacity
			}
		}
		if restricted < none*0.8 {
			t.Errorf("restricted range capacity %.1f far below unrestricted %.1f; paper says it stays the same", restricted, none)
		}
	}),
	"TestSec61eEnergyTradeoff": quick("sec61e", func(t *testing.T, res Sec61eResult) {
		byName := map[string]Sec61eRow{}
		for _, r := range res.Rows {
			byName[r.Name] = r
		}
		// The §6.1 anchor: fixing the uncore at freq_max costs roughly 7 %
		// on the analytics reference workload.
		fixed := byName["fixed-frequency"]
		if fixed.OverheadPct < 4 || fixed.OverheadPct > 12 {
			t.Errorf("fixed-frequency overhead %.1f%%, paper ≈7%%", fixed.OverheadPct)
		}
		if !fixed.StopsChannel {
			t.Error("fixed frequency does not stop the channel")
		}
		// Busy-uncore burns comparable energy; restricted range is cheap
		// but ineffective against the covert channel.
		if byName["busy-uncore"].OverheadPct < 3 {
			t.Errorf("busy-uncore overhead %.1f%%, expected comparable to pinning", byName["busy-uncore"].OverheadPct)
		}
		if byName["restricted-range"].StopsChannel {
			t.Error("restricted range should not stop the covert channel (§6.1)")
		}
		if byName["restricted-range"].OverheadPct > 0 {
			t.Errorf("restricted range costs energy (%.1f%%); it should save it", byName["restricted-range"].OverheadPct)
		}
		if byName["none"].OverheadPct != 0 {
			t.Error("baseline overhead not zero")
		}
	}),
	"TestSec61fRangeBluntsFingerprinting": quick("sec61f", func(t *testing.T, res Sec61fResult) {
		// §6.1: the narrow range makes site traces much harder to
		// distinguish, while the default range fingerprints well.
		if res.Top1Default < 0.7 {
			t.Errorf("default-range top-1 %.2f unexpectedly low", res.Top1Default)
		}
		if res.Top1Range > res.Top1Default-0.15 {
			t.Errorf("restricted range barely hurts fingerprinting: %.2f vs %.2f",
				res.Top1Range, res.Top1Default)
		}
	}),
	"TestFig11FileSizeProfiling": quick("fig11", func(t *testing.T, res Fig11Result) {
		// Dwell grows with size (Figure 11's visual claim).
		for i := 1; i < len(res.Dwell); i++ {
			if res.Dwell[i] <= res.Dwell[i-1] {
				t.Errorf("dwell not increasing with size: %v", res.Dwell)
			}
		}
		if res.Accuracy < 0.95 {
			t.Errorf("size classification accuracy %.2f, paper >0.99", res.Accuracy)
		}
	}),
	"TestFig12FingerprintQuick": quick("fig12", func(t *testing.T, res Fig12Result) {
		if res.Report.Top1 < 0.6 {
			t.Errorf("top-1 accuracy %.2f on reduced corpus, want ≥0.6", res.Report.Top1)
		}
		if res.Report.Top5 < res.Report.Top1 {
			t.Error("top-5 below top-1")
		}
	}),
	"TestFig12FullAccuracy": full("fig12", func(t *testing.T, res Fig12Result) {
		// Paper: 82.18 % top-1, 91.48 % top-5 over 100 sites.
		if res.Report.Top1 < 0.70 || res.Report.Top1 > 0.95 {
			t.Errorf("top-1 = %.2f%%, paper 82.18%%", res.Report.Top1*100)
		}
		if res.Report.Top5 < res.Report.Top1 || res.Report.Top5 < 0.85 {
			t.Errorf("top-5 = %.2f%%, paper 91.48%%", res.Report.Top5*100)
		}
	}),

	// Table 3: every cell against the paper's ✓/✗ matrix in full mode;
	// in quick mode the headline cells: the two channels the paper singles
	// out as surviving partitioning, and a classic channel dying under it.
	"TestTab3MatchesPaperMatrix": full("tab3", func(t *testing.T, res Tab3Result) {
		if len(res.Rows) != len(Tab3Expected) {
			t.Fatalf("%d rows, want %d", len(res.Rows), len(Tab3Expected))
		}
		for _, row := range res.Rows {
			want, ok := Tab3Expected[row]
			if !ok {
				t.Errorf("unexpected row %q", row)
				continue
			}
			cells := res.Cells[row]
			for j, col := range res.Columns {
				if cells[j].Functional != want[j] {
					t.Errorf("%s under %s: functional=%v (BER %.2f), paper says %v",
						row, col, cells[j].Functional, cells[j].BER, want[j])
				}
			}
		}
	}),
	"TestTab3QuickSpotChecks": quick("tab3", func(t *testing.T, res Tab3Result) {
		col := map[string]int{}
		for j, c := range res.Columns {
			col[c] = j
		}
		check := func(row, column string, want bool) {
			t.Helper()
			got := res.Cells[row][col[column]].Functional
			if got != want {
				t.Errorf("%s under %s: functional=%v, want %v (BER %.2f)",
					row, column, got, want, res.Cells[row][col[column]].BER)
			}
		}
		// UF-variation survives everything (the paper's headline claim).
		for _, c := range res.Columns {
			check("UF-variation", c, true)
		}
		// Uncore-idle survives partitioning but dies under load.
		check("Uncore-idle", "coarse-partition", true)
		check("Uncore-idle", "stress-ng-4", false)
		// Prime+Probe dies under randomization and partitioning.
		check("Prime+Probe", "randomized-llc", false)
		check("Prime+Probe", "fine-partition", false)
		// SPP beats randomization but not partitioning.
		check("SPP", "randomized-llc", true)
		check("SPP", "fine-partition", false)
		// Contention channels die only under partitioning.
		check("Mesh-contention", "randomized-llc", true)
		check("Mesh-contention", "fine-partition", false)
		// IccCoresCovert dies only across sockets.
		check("IccCoresCovert", "fine-partition", true)
		check("IccCoresCovert", "coarse-partition", false)
		// Data-reuse channels need their prerequisites.
		check("Flush+Reload", "no-shared-mem", false)
		check("Flush+Reload", "randomized-llc", true)
		check("Prime+Abort", "no-tsx", false)
		check("Reload+Refresh", "randomized-llc", false)
	}),

	// The reliability transport and the calibration ablations.
	//
	// At a fault intensity where the raw channel's BER is past 5% the
	// transport still delivers ≥99% of the payload, and at full intensity
	// it degrades the bit rate instead of erroring.
	"TestReliabilityAcceptance": quick("rel", func(t *testing.T, res *relResult) {
		if len(res.Rows) < 3 {
			t.Fatalf("only %d rows", len(res.Rows))
		}
		clean := res.Rows[0]
		if clean.Intensity != 0 || clean.RawBER != 0 || clean.Delivery != 1 {
			t.Errorf("clean row not clean: %+v", clean)
		}
		found := false
		for _, row := range res.Rows {
			if row.RawBER > 0.05 && row.Delivery >= 0.99 && row.ResidualBER == 0 {
				found = true
			}
		}
		if !found {
			t.Errorf("no intensity with raw BER > 5%% and ≥99%% delivery:\n%+v", res.Rows)
		}
		last := res.Rows[len(res.Rows)-1]
		if last.Intensity != 1 {
			t.Fatalf("last row at intensity %v", last.Intensity)
		}
		if last.Note != "" {
			t.Errorf("full intensity errored instead of degrading: %s", last.Note)
		}
		if last.Delivery < 0.99 {
			t.Errorf("full intensity delivered %.0f%%", last.Delivery*100)
		}
		if last.Degrade == 0 && last.Retrans == 0 {
			t.Error("full intensity cost neither retransmissions nor rate")
		}
		if last.RawBER <= clean.RawBER {
			t.Error("raw BER did not rise with intensity")
		}
		if last.Interval < res.BaseInterval {
			t.Errorf("final interval %v below base %v", last.Interval, res.BaseInterval)
		}
	}),
	"TestAblations": quick("ablate", func(t *testing.T, res AblationResult) {
		// (a) A longer status-sampling window must hurt fast intervals more
		// than safe ones: the knee moves right.
		n := len(res.TailWindowMS)
		if n < 2 {
			t.Fatal("no tail-window sweep")
		}
		if res.BERFast[n-1] <= res.BERFast[0] {
			t.Errorf("fast-interval BER not increasing with tail window: %v", res.BERFast)
		}
		for i, b := range res.BERSafe {
			if b > res.BERFast[i]+0.02 {
				t.Errorf("safe interval worse than fast one at tail %v ms", res.TailWindowMS[i])
			}
		}
		// (b) More correlated noise → more errors at the peak.
		if !(res.BERPeak[0] <= res.BERPeak[1] && res.BERPeak[1] < res.BERPeak[2]) {
			t.Errorf("BER not increasing with drift noise: %v", res.BERPeak)
		}
		// (c) The superlinear distance weighting is what lets one far
		// thread reach the maximum (Figure 3's 3-hop row); flat weights
		// cannot.
		last := len(res.Fig3Types) - 1
		if res.OneThreadSuper[last] < 2.35 {
			t.Errorf("default weights: one 3-hop thread reaches %.1f GHz, want 2.4", res.OneThreadSuper[last])
		}
		if res.OneThreadFlat[last] >= res.OneThreadSuper[last] {
			t.Errorf("flat weights reach %.1f GHz, expected below the default %.1f",
				res.OneThreadFlat[last], res.OneThreadSuper[last])
		}
	}),
}

func TestFig3MatchesPaperGrid(t *testing.T)            { checkRow(t) }
func TestFig3QuickSubset(t *testing.T)                 { checkRow(t) }
func TestFig4MatchesStallRule(t *testing.T)            { checkRow(t) }
func TestFig5RampUp(t *testing.T)                      { checkRow(t) }
func TestFig6RampDown(t *testing.T)                    { checkRow(t) }
func TestFig7CrossSocketCoupling(t *testing.T)         { checkRow(t) }
func TestSec32StallRatios(t *testing.T)                { checkRow(t) }
func TestFig8LatencyShape(t *testing.T)                { checkRow(t) }
func TestFig9Transmission(t *testing.T)                { checkRow(t) }
func TestFig10Shape(t *testing.T)                      { checkRow(t) }
func TestFig10FullSweepPeaks(t *testing.T)             { checkRow(t) }
func TestFig10xVariantsAllFunctional(t *testing.T)     { checkRow(t) }
func TestTab2Shape(t *testing.T)                       { checkRow(t) }
func TestSec61Countermeasures(t *testing.T)            { checkRow(t) }
func TestSec61eEnergyTradeoff(t *testing.T)            { checkRow(t) }
func TestSec61fRangeBluntsFingerprinting(t *testing.T) { checkRow(t) }
func TestFig11FileSizeProfiling(t *testing.T)          { checkRow(t) }
func TestFig12FingerprintQuick(t *testing.T)           { checkRow(t) }
func TestFig12FullAccuracy(t *testing.T)               { checkRow(t) }
func TestTab3MatchesPaperMatrix(t *testing.T)          { checkRow(t) }
func TestTab3QuickSpotChecks(t *testing.T)             { checkRow(t) }
func TestReliabilityAcceptance(t *testing.T)           { checkRow(t) }
func TestAblations(t *testing.T)                       { checkRow(t) }
