package baselines

import (
	"repro/internal/cache"
	"repro/internal/channel"
	"repro/internal/defense"
	"repro/internal/memsys"
	"repro/internal/mesh"
	"repro/internal/sim"
	"repro/internal/system"
)

// ReloadRefresh exploits precise control of a shared line's residency in
// the LLC: the receiver parks the shared line in the LLC (by pushing it
// out of its private L2); a sender access then promotes the line into the
// sender's private cache, and the receiver's next timed reload is served
// by a cross-core snoop instead of the LLC — a measurably different
// latency, with no eviction needed. Like the original attack it depends on
// shared memory, clflush for state reset, and on both parties addressing
// the same LLC location, which randomized per-domain indexing destroys.
type ReloadRefresh struct{}

// Name implements Channel.
func (*ReloadRefresh) Name() string { return "Reload+Refresh" }

// Interconnect implements Channel.
func (*ReloadRefresh) Interconnect() mesh.Kind { return mesh.KindMesh }

// rrInterval is the per-bit interval; parking the line takes a short
// eviction walk, so intervals are a bit longer than Flush+Reload's.
const rrInterval = 3 * sim.Millisecond

// Run implements Channel.
func (*ReloadRefresh) Run(m *system.Machine, env defense.Env, bits channel.Bits) (channel.Result, error) {
	if !env.EffectiveSharedMemory() || !env.CLFlush {
		return broken(bits, rrInterval), nil
	}
	pl := env.Placement()
	alloc := memsys.NewAllocator()
	shared := alloc.Reserve(1)[0]

	// Lines sharing the shared line's L2 set, used to push it out of
	// the receiver's private L2 so it lands in the LLC.
	geom := m.Socket(pl.ReceiverSocket).Hier.Geometry()
	evict := make([]cache.Line, 0, geom.L2Ways+4)
	for k := 1; len(evict) < geom.L2Ways+4; k++ {
		evict = append(evict, shared+cache.Line(k*geom.L2Sets))
	}

	start := m.Now() + 10*sim.Millisecond
	q := m.Config().Quantum

	// The LLC-vs-snoop threshold depends on the shared line's home
	// slice distance from the receiver core.
	rSock := m.Socket(pl.ReceiverSocket)
	hops := rSock.Mesh.Hops(rSock.Die.CoreCoord(pl.ReceiverCore),
		rSock.Die.SliceCoord(rSock.Hier.SliceOf(pl.ReceiverDomain, shared)))

	sender := system.WorkloadFunc(func(ctx *system.Ctx) system.Activity {
		rel := ctx.Start() - start
		// Touch the line once, mid-interval, after the receiver has
		// parked it.
		if bitAt(bits, start, rrInterval, ctx.Start()) == 1 && rel%rrInterval >= rrInterval/2 && rel%rrInterval < rrInterval/2+q {
			ctx.Access(shared)
		}
		return system.Activity{Active: true, Cycles: ctx.CoreFreq().CyclesIn(ctx.Remaining())}
	})

	decoded := make(channel.Bits, len(bits))
	receiver := system.WorkloadFunc(func(ctx *system.Ctx) system.Activity {
		rel := ctx.Start() - start
		if rel >= 0 {
			idx := int(rel / rrInterval)
			off := rel % rrInterval
			switch {
			case off < q && idx < len(bits):
				// Park: reset, load, and push into the LLC.
				ctx.Flush(shared)
				ctx.Access(shared)
				for _, l := range evict {
					ctx.Access(l)
				}
			case off >= rrInterval-q && idx < len(bits):
				// Probe: an LLC-served reload means untouched; a
				// snoop-served (remote) reload means the sender
				// pulled it into its private cache.
				lat := ctx.TimedAccess(shared)
				if lat > remoteThresholdCycles(ctx, hops) {
					decoded[idx] = 1
				}
			}
		}
		return system.Activity{Active: true, Cycles: ctx.CoreFreq().CyclesIn(ctx.Remaining())}
	})

	st := m.Spawn(unique(m, "rr-sender"), pl.SenderSocket, pl.SenderCore, pl.SenderDomain, sender)
	rt := m.Spawn(unique(m, "rr-receiver"), pl.ReceiverSocket, pl.ReceiverCore, pl.ReceiverDomain, receiver)
	run(m, 10*sim.Millisecond, rrInterval, len(bits))
	st.Stop()
	rt.Stop()
	return channel.Evaluate(bits, decoded, rrInterval), nil
}

// remoteThresholdCycles separates an LLC hit from a cross-core snoop at
// the current uncore frequency, given the line's home-slice hop distance.
func remoteThresholdCycles(ctx *system.Ctx, hops int) float64 {
	tp := ctx.Timing()
	llc := tp.LLCMeanCycles(ctx.CoreFreq(), ctx.UncoreFreq(), hops, 0)
	// The remote path adds roughly half a slice pipeline plus extra
	// hops (see timing.SampleCycles): ≥27 cycles even at the top
	// frequency; 14 splits the distributions with margin.
	return llc + 14
}
