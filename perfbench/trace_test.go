package main

import (
	"testing"
	"time"
)

func sp(id, parent uint64, start, end time.Duration) span {
	return span{ID: id, Parent: parent, Name: "x", Start: start, End: end}
}

func TestSelfTimeSubtractsCoveredInterval(t *testing.T) {
	parent := sp(1, 0, 0, 100)
	for _, c := range []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"disjoint", []span{sp(2, 1, 10, 20), sp(3, 1, 50, 60)}, 80},
		{"overlapping children count once", []span{sp(2, 1, 10, 20), sp(3, 1, 15, 30)}, 80},
		{"nested children count once", []span{sp(2, 1, 10, 50), sp(3, 1, 20, 30)}, 60},
		{"clipped to the parent", []span{sp(2, 1, -10, 10), sp(3, 1, 90, 120)}, 80},
		{"outside the parent", []span{sp(2, 1, 100, 120)}, 100},
		{"fully covered", []span{sp(2, 1, 0, 60), sp(3, 1, 60, 100)}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSpanIndexAggregates(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "link.send", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "phy.transmit", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "phy.idle", Start: 50, End: 70},
		{ID: 4, Name: "link.send", Start: 200, End: 250},
		{ID: 5, Parent: 4, Name: "phy.transmit", Start: 200, End: 250},
	}
	ix := indexSpans(spans)
	if got, want := ix.total("link.send"), (150 * time.Nanosecond).Seconds(); got != want {
		t.Errorf("total = %v, want %v", got, want)
	}
	if got, want := ix.self("link.send"), (50 * time.Nanosecond).Seconds(); got != want {
		t.Errorf("self = %v, want %v", got, want)
	}
	if got := len(ix.durationsMS("phy.transmit")); got != 2 {
		t.Errorf("%d transmit durations, want 2", got)
	}
}

func TestTracerRecordsParentage(t *testing.T) {
	var nilTracer *tracer
	if id := nilTracer.open("x", 1, 0); id != 0 {
		t.Fatalf("nil tracer returned span %d", id)
	}
	nilTracer.close(0)

	tr := newTracer()
	root := tr.open("root", 7, 0)
	child := tr.open("child", 7, root)
	tr.close(child)
	tr.close(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Trace != 7 {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].End < spans[1].End || spans[1].Start < spans[0].Start {
		t.Errorf("child %+v not inside root %+v", spans[1], spans[0])
	}
}

func TestTracerConcurrentSpans(t *testing.T) {
	tr := newTracer()
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 100; i++ {
				tr.close(tr.open("x", 1, 0))
			}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if got := len(tr.snapshot()); got != 400 {
		t.Fatalf("%d spans, want 400", got)
	}
}
