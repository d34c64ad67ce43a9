package main

import (
	"fmt"
	"os"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime returns the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the resident set's high-water mark in MiB since
// process start or the last resetPeakRSS.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// resetPeakRSS hands freed memory back to the OS and restarts the
// high-water mark from the current resident set.
func resetPeakRSS() {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: resetting the peak RSS: %v\n", err)
	}
}

// goRuntime is a reading of the Go runtime's allocation and GC CPU
// counters.
type goRuntime struct {
	allocBytes float64
	gcCPUSecs  float64
}

func readGoRuntime() goRuntime {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	var g goRuntime
	if s[0].Value.Kind() == metrics.KindUint64 {
		g.allocBytes = float64(s[0].Value.Uint64())
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		g.gcCPUSecs = s[1].Value.Float64()
	}
	return g
}

func (g goRuntime) sub(o goRuntime) goRuntime {
	return goRuntime{allocBytes: g.allocBytes - o.allocBytes, gcCPUSecs: g.gcCPUSecs - o.gcCPUSecs}
}

func (g goRuntime) add(o goRuntime) goRuntime {
	return goRuntime{allocBytes: g.allocBytes + o.allocBytes, gcCPUSecs: g.gcCPUSecs + o.gcCPUSecs}
}
