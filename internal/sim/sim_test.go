package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	cases := []struct {
		d    Time
		ms   float64
		name string
	}{
		{10 * Millisecond, 10, "10ms"},
		{Second, 1000, "1s"},
		{200 * Microsecond, 0.2, "200us"},
	}
	for _, c := range cases {
		if got := c.d.Milliseconds(); got != c.ms {
			t.Errorf("%s: Milliseconds() = %v, want %v", c.name, got, c.ms)
		}
	}
	if Second.Seconds() != 1 {
		t.Errorf("Second.Seconds() = %v", Second.Seconds())
	}
}

func TestTimeString(t *testing.T) {
	cases := map[Time]string{
		0:                      "0s",
		38 * Millisecond:       "38ms",
		1500 * Microsecond:     "1.5ms",
		200 * Microsecond:      "200us",
		3 * Nanosecond:         "3ns",
		2 * Second:             "2s",
		10*Second + Nanosecond: "10000.000001ms",
	}
	for d, want := range cases {
		if got := d.String(); got != want {
			t.Errorf("(%d).String() = %q, want %q", int64(d), got, want)
		}
	}
}

func TestFreqBasics(t *testing.T) {
	if got := Freq(24).GHz(); got != 2.4 {
		t.Errorf("Freq(24).GHz() = %v, want 2.4", got)
	}
	if got := Freq(26).String(); got != "2.6GHz" {
		t.Errorf("String() = %q", got)
	}
	// One cycle at 2.6 GHz is ~385 ps.
	ct := Freq(26).CycleTime()
	if ct < 384 || ct > 386 {
		t.Errorf("CycleTime at 2.6GHz = %dps, want ~385ps", int64(ct))
	}
}

func TestFreqCyclesRoundTrip(t *testing.T) {
	f := Freq(24)
	d := 10 * Millisecond
	cycles := f.CyclesIn(d)
	if want := 24e6; math.Abs(cycles-want) > 1 {
		t.Errorf("CyclesIn(10ms) at 2.4GHz = %v, want %v", cycles, want)
	}
	back := f.TimeFor(cycles)
	if diff := back - d; diff < -Nanosecond || diff > Nanosecond {
		t.Errorf("TimeFor(CyclesIn(d)) = %v, want %v", back, d)
	}
}

func TestFreqClamp(t *testing.T) {
	if got := Freq(30).Clamp(12, 24); got != 24 {
		t.Errorf("Clamp high = %v", got)
	}
	if got := Freq(5).Clamp(12, 24); got != 12 {
		t.Errorf("Clamp low = %v", got)
	}
	if got := Freq(20).Clamp(12, 24); got != 20 {
		t.Errorf("Clamp mid = %v", got)
	}
}

func TestFreqCycleTimePanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("CycleTime(0) did not panic")
		}
	}()
	Freq(0).CycleTime()
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seeded streams diverged at %d", i)
		}
	}
	c := NewRand(43)
	same := 0
	a = NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds collide %d/100 times", same)
	}
}

// TestRandReseedReplaysNew pins the in-place paths pooled machines use:
// a used Rand reseeded, and a used Rand refilled by SplitInto, must
// produce exactly the streams NewRand and Split would have returned.
func TestRandReseedReplaysNew(t *testing.T) {
	used := NewRand(1)
	used.Uint64()
	used.Reseed(42)
	parentA, parentB := NewRand(7), NewRand(7)
	into := parentB.SplitInto(NewRand(99), 3)
	want, split := NewRand(42), parentA.Split(3)
	for i := 0; i < 64; i++ {
		if used.Uint64() != want.Uint64() {
			t.Fatalf("reseeded stream diverges from NewRand at %d", i)
		}
		if into.Uint64() != split.Uint64() {
			t.Fatalf("SplitInto stream diverges from Split at %d", i)
		}
		if parentA.Uint64() != parentB.Uint64() {
			t.Fatalf("SplitInto consumed the parent differently from Split at %d", i)
		}
	}
}

func TestRandSplitIndependence(t *testing.T) {
	r := NewRand(7)
	a := r.Split(1)
	b := r.Split(2)
	if a.Uint64() == b.Uint64() {
		t.Error("split streams start identically")
	}
}

func TestRandDistributions(t *testing.T) {
	r := NewRand(1)
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += r.Norm(10, 2)
	}
	if mean := sum / n; math.Abs(mean-10) > 0.1 {
		t.Errorf("Norm mean = %v, want ~10", mean)
	}
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	if p := float64(hits) / n; math.Abs(p-0.25) > 0.02 {
		t.Errorf("Bool(0.25) rate = %v", p)
	}
}

func TestRandJitterBounds(t *testing.T) {
	r := NewRand(2)
	if r.Jitter(0) != 0 {
		t.Error("Jitter(0) != 0")
	}
	for i := 0; i < 1000; i++ {
		j := r.Jitter(Millisecond)
		if j < 0 || j >= Millisecond {
			t.Fatalf("Jitter out of range: %v", j)
		}
	}
}

func TestHashStringStable(t *testing.T) {
	if HashString("amazon.com") != HashString("amazon.com") {
		t.Error("HashString not stable")
	}
	if HashString("a") == HashString("b") {
		t.Error("trivial HashString collision")
	}
}

func TestHashStringQuick(t *testing.T) {
	// Property: equal inputs hash equal; prepending a byte changes it.
	f := func(s string, b byte) bool {
		h := HashString(s)
		return h == HashString(s) && HashString(string(b)+s) != h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
