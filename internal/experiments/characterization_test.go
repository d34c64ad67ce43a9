package experiments

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// quickOpts keeps characterisation tests fast while exercising the real
// experiment code paths.
func quickOpts() Options { return Options{Seed: 0x5eed, Quick: true} }

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

func TestFig3MatchesPaperGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid in long mode only")
	}
	res, err := Fig3(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i, tt := range res.Types {
		want := Fig3Expected[tt]
		for j, n := range res.Counts {
			got := res.Freq[i][j]
			if !freqMatches(got, want[j]) {
				t.Errorf("fig3[%s][%d threads] = %.2f GHz, paper %.1f", trafficTypeName(tt), n, got, want[j])
			}
		}
	}
}

func TestFig3QuickSubset(t *testing.T) {
	res, err := Fig3(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
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
}

func TestFig4MatchesStallRule(t *testing.T) {
	res, err := Fig4(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
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
}

func TestFig5RampUp(t *testing.T) {
	res, err := Fig5(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
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
}

func TestFig6RampDown(t *testing.T) {
	res, err := Fig6(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
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
}

func TestFig7CrossSocketCoupling(t *testing.T) {
	res, err := Fig7(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
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
}

func TestSec32StallRatios(t *testing.T) {
	res, err := Sec32(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.ChaseRatio-0.77) > 0.05 {
		t.Errorf("LLC chase stall ratio %.2f, paper ≈0.77", res.ChaseRatio)
	}
	if math.Abs(res.TrafficRatio-0.30) > 0.05 {
		t.Errorf("traffic stall ratio %.2f, paper ≈0.3", res.TrafficRatio)
	}
	if math.Abs(res.L2ChaseRatio-0.14) > 0.05 {
		t.Errorf("L2 chase stall ratio %.2f, paper ≈0.14", res.L2ChaseRatio)
	}
}

func TestFig8LatencyShape(t *testing.T) {
	res, err := Fig8(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
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
}

func TestRegistryComplete(t *testing.T) {
	for _, id := range []string{"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "sec32"} {
		if _, ok := Get(id); !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	for _, e := range All() {
		if e.Title == "" || e.Run == nil {
			t.Errorf("experiment %q incomplete", e.ID)
		}
	}
}
