package system

import (
	"math"

	"repro/internal/cache"
	"repro/internal/sim"
	"repro/internal/timing"
)

// Ctx is a workload's window into one quantum of execution on its core.
// Fine-grained operations (timed loads, flushes) advance a sub-quantum
// cursor and accumulate activity; aggregate loop models instead report
// whole-quantum activity from their Step return value. Both are summed.
type Ctx struct {
	m       *Machine
	t       *Thread
	start   sim.Time
	quantum sim.Time
	used    sim.Time
	acc     Activity

	// record is set while a Stationary workload's quantum is being
	// recorded for replay; a Ctx call the record cannot reproduce clears
	// it.
	record bool
}

// Machine returns the platform.
func (c *Ctx) Machine() *Machine { return c.m }

// Timing returns the machine's latency model. It points into the machine's
// configuration, so per-quantum and per-access callers read the constants
// in place instead of copying the Config.
func (c *Ctx) Timing() *timing.Params { return &c.m.cfg.Timing }

// Thread returns the executing thread.
func (c *Ctx) Thread() *Thread { return c.t }

// Quantum returns the quantum length.
func (c *Ctx) Quantum() sim.Time { return c.quantum }

// Start returns the quantum's start instant.
func (c *Ctx) Start() sim.Time { return c.start }

// Now returns the thread's current virtual timestamp — the quantum start
// plus time consumed by fine-grained operations. This is the rdtscp value
// the sender and receiver synchronise on (§4.3.2).
func (c *Ctx) Now() sim.Time { return c.start + c.used }

// Remaining returns how much of the quantum is left for fine-grained work.
func (c *Ctx) Remaining() sim.Time {
	if c.used >= c.quantum {
		return 0
	}
	return c.quantum - c.used
}

// Rng returns the thread's private random stream.
func (c *Ctx) Rng() *sim.Rand {
	c.record = false
	return c.t.rng
}

// CoreFreq returns the core's operating frequency.
func (c *Ctx) CoreFreq() sim.Freq { return c.t.Core.Freq }

// UncoreFreq returns the socket's current uncore frequency.
func (c *Ctx) UncoreFreq() sim.Freq { return c.t.Sock.Gov.Current() }

// access performs one load through the functional hierarchy and returns
// its sampled latency in core cycles along with the result. A load served
// beyond the private caches crosses the mesh to its home slice: the slice
// tile and hop count are resolved once and shared by the latency model,
// the mesh transaction (contention and traffic in one route walk) and the
// governor's pressure weight. A memory miss adds the hops onward to the
// nearest memory controller.
func (c *Ctx) access(line cache.Line) (float64, cache.AccessResult) {
	t := c.t
	res := t.Caches.Access(t.Domain, line)
	var hops int
	var contention float64
	if res.Level >= cache.LevelLLC {
		sock := t.Sock
		sliceTile := sock.Die.SliceCoord(res.Slice)
		hops = sock.Mesh.Hops(t.Core.Tile, sliceTile)
		contention = sock.Mesh.Transact(t.Domain, t.Core.Tile, sliceTile)
		c.acc.LLCAccesses++
		c.acc.Pressure += c.m.cfg.UFS.DistanceWeight(hops)
		if res.Level == cache.LevelMem {
			best := -1
			for _, imc := range sock.Die.IMCs() {
				d := sock.Mesh.Hops(sliceTile, imc)
				if best == -1 || d < best {
					best = d
				}
			}
			if best > 0 {
				hops += best
			}
		}
	}
	// Individual accesses sample the instantaneous uncore frequency,
	// which inside the idle band wobbles faster than a governor epoch.
	fu := t.Sock.Gov.SampleFreq(t.rng)
	cycles := c.m.cfg.Timing.SampleCycles(res.Level, c.CoreFreq(), fu, hops, contention, t.rng)
	if res.Level >= cache.LevelLLC {
		cycles += t.drift.Sample(&c.m.cfg.Timing, c.Now(), t.rng)
		if cycles < 1 {
			cycles = 1
		}
	}
	return cycles, res
}

// charge advances the sub-quantum cursor by n core cycles and accounts
// them, stalled or not. Every load and flush ends here, so it is also
// where a recorded quantum learns it cannot be replayed.
func (c *Ctx) charge(cycles float64, stalled float64) {
	c.record = false
	c.used += c.CoreFreq().TimeFor(cycles)
	c.acc.Active = true
	c.acc.Cycles += cycles
	c.acc.StallCycles += stalled
}

// Access performs an untimed load of line (priming, pointer writes). The
// load's latency is charged as mostly-stalled time.
func (c *Ctx) Access(line cache.Line) cache.AccessResult {
	cycles, res := c.access(line)
	stall := cycles - 16
	if stall < 0 {
		stall = 0
	}
	c.charge(cycles, stall)
	return res
}

// TimedAccess performs the fenced, rdtscp-bracketed load of the paper's
// measurement loop (Listing 3) and returns the measured latency in core
// cycles. The fences serialise the pipeline: they add time (keeping the
// receiver's LLC access density low, §4.2) but are excluded from the
// measured value, exactly as rdtscp brackets only the load.
//
// When a machine-level fault hook drops the sample (an interrupt landed
// inside the timing bracket), the load still happened — the cache state
// changed and the time was spent — but the measurement is lost and NaN
// is returned; measurement loops must discard NaN samples.
func (c *Ctx) TimedAccess(line cache.Line) float64 {
	cycles, _ := c.access(line)
	c.charge(cycles+c.m.cfg.Timing.FenceCycles, cycles)
	if c.m.faults != nil && c.m.faults.DropSample(c.t.Name, c.Now()) {
		return math.NaN()
	}
	return cycles
}

// Flush executes clflush on line, invalidating it in every cache in the
// socket, and returns the instruction's latency in core cycles — higher
// when the line was cached, which is the signal Flush+Flush times.
func (c *Ctx) Flush(line cache.Line) float64 {
	present := c.t.Sock.Hier.Flush(line)
	cycles := 28.0
	if present {
		cycles = 42
	}
	cycles += c.t.rng.Norm(0, 1)
	if cycles < 1 {
		cycles = 1
	}
	c.charge(cycles, 0)
	return cycles
}

// InjectTraffic registers an aggregate stream of LLC transactions from
// this core to the given slice during the quantum: the loop workloads
// (Listings 1 and 2) are modelled at this level because simulating each of
// their millions of per-second accesses individually is unnecessary — only
// their density and distance matter to the governor and to contention.
// It returns the hop distance used.
func (c *Ctx) InjectTraffic(slice int, accesses float64) int {
	t := c.t
	dst := t.Sock.Die.SliceCoord(slice)
	hops := t.Sock.Mesh.Hops(t.Core.Tile, dst)
	t.Sock.Mesh.AddTraffic(t.Domain, t.Core.Tile, dst, accesses)
	if c.record {
		if sq := &t.steady; sq.n < maxSteadyInjects {
			sq.dst[sq.n], sq.accesses[sq.n] = dst, accesses
			sq.n++
		} else {
			c.record = false
		}
	}
	c.acc.LLCAccesses += accesses
	c.acc.Pressure += accesses * c.m.cfg.UFS.DistanceWeight(hops)
	return hops
}

// HopsTo returns the mesh distance from this thread's core to a slice.
func (c *Ctx) HopsTo(slice int) int {
	return c.t.Sock.Mesh.Hops(c.t.Core.Tile, c.t.Sock.Die.SliceCoord(slice))
}
