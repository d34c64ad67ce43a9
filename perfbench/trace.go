package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Trace groups the
// spans of one op; Parent is the span that caused this one (0 for a
// root). Start and End are offsets from the tracer's origin.
type span struct {
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent,omitempty"`
	Trace  uint64        `json:"trace"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory; they are written out once, when the run
// ends. A nil *tracer records nothing, so untraced code paths pass nil.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// open starts a span and returns its ID (0 on a nil tracer).
func (t *tracer) open(name string, trace, parent uint64) uint64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := uint64(len(t.spans)) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: now, End: now})
	return id
}

// close ends the span id.
func (t *tracer) close(id uint64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// snapshot returns a copy of every span recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSONL writes every span, one JSON object per line, to path.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTime is a span's duration minus the part of its interval that its
// children cover. Overlapping children (concurrent calls) are merged
// first, so covered time is never counted twice, and children are
// clipped to the parent's interval.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered := time.Duration(0)
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			covered += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.hi - cur.lo
	}
	return parent.dur() - covered
}

// spanIndex groups a trace's spans for per-name aggregation.
type spanIndex struct {
	byName   map[string][]span
	children map[uint64][]span
}

func indexSpans(spans []span) spanIndex {
	ix := spanIndex{byName: map[string][]span{}, children: map[uint64][]span{}}
	for _, s := range spans {
		ix.byName[s.Name] = append(ix.byName[s.Name], s)
		if s.Parent != 0 {
			ix.children[s.Parent] = append(ix.children[s.Parent], s)
		}
	}
	return ix
}

// total sums the durations of every span called name, in seconds.
func (ix spanIndex) total(name string) float64 {
	var d time.Duration
	for _, s := range ix.byName[name] {
		d += s.dur()
	}
	return d.Seconds()
}

// self sums the self time of every span called name, in seconds.
func (ix spanIndex) self(name string) float64 {
	var d time.Duration
	for _, s := range ix.byName[name] {
		d += selfTime(s, ix.children[s.ID])
	}
	return d.Seconds()
}

// durationsMS lists the durations of every span called name, in ms.
func (ix spanIndex) durationsMS(name string) []float64 {
	out := make([]float64, 0, len(ix.byName[name]))
	for _, s := range ix.byName[name] {
		out = append(out, float64(s.dur())/float64(time.Millisecond))
	}
	return out
}
