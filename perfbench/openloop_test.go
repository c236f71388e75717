package main

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	loop := openLoop{Rate: 100, Duration: 100 * time.Millisecond, Conns: 1, Timeout: time.Second}
	outs := loop.run(context.Background(), func(ctx context.Context, i int) bool {
		if i == 0 {
			time.Sleep(60 * time.Millisecond) // a stall the next requests queue behind
		}
		return true
	})
	if len(outs) != 10 {
		t.Fatalf("got %d outcomes, want 10", len(outs))
	}
	// Request 1 was due at 10ms but could only be sent after the 60ms
	// stall: its latency must count the wait.
	if got := outs[1].Latency; got < 40*time.Millisecond {
		t.Errorf("request 1 latency %v; the wait behind the stall is missing", got)
	}
	for i, o := range outs {
		if !o.OK || !o.Sent {
			t.Errorf("request %d: ok=%v sent=%v", i, o.OK, o.Sent)
		}
		if o.Due != loop.due(i) || o.Late < 0 {
			t.Errorf("request %d: due %v late %v", i, o.Due, o.Late)
		}
	}
}

func TestOpenLoopCapsConnections(t *testing.T) {
	var inFlight, peak atomic.Int32
	loop := openLoop{Rate: 1000, Duration: 50 * time.Millisecond, Conns: 2, Timeout: time.Second}
	outs := loop.run(context.Background(), func(ctx context.Context, i int) bool {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		inFlight.Add(-1)
		return true
	})
	if p := peak.Load(); p > 2 {
		t.Errorf("%d requests in flight, want at most 2", p)
	}
	if s := summarize(outs, 0.9, time.Second); s.OK != len(outs) {
		t.Errorf("%d of %d ok", s.OK, len(outs))
	}
}

func TestOpenLoopFailuresMissTheLimit(t *testing.T) {
	loop := openLoop{Rate: 200, Duration: 100 * time.Millisecond, Conns: 2, Timeout: 500 * time.Millisecond}
	outs := loop.run(context.Background(), func(ctx context.Context, i int) bool { return i%2 == 1 })
	s := summarize(outs, 0.75, time.Second)
	if s.Attempted != 20 || s.OK != 10 || s.WithinLimit != 10 {
		t.Errorf("attempted %d ok %d within %d, want 20 10 10", s.Attempted, s.OK, s.WithinLimit)
	}
	for i, o := range outs {
		if !o.OK && o.Latency < loop.Timeout {
			t.Errorf("failed request %d counted at %v, below the timeout", i, o.Latency)
		}
	}
	// Half the requests failed, so the p75 sits on a failure.
	if s.Tail < loop.Timeout {
		t.Errorf("p75 %v ignores the failures", s.Tail)
	}
}

func TestOpenLoopFailsRequestsPastTheirDeadline(t *testing.T) {
	loop := openLoop{Rate: 100, Duration: 50 * time.Millisecond, Conns: 1, Timeout: 20 * time.Millisecond}
	outs := loop.run(context.Background(), func(ctx context.Context, i int) bool {
		time.Sleep(50 * time.Millisecond) // a server that answers too late
		return false
	})
	unsent := 0
	for _, o := range outs {
		if o.OK {
			t.Fatal("a request that never got an answer counted as ok")
		}
		if !o.Sent {
			unsent++
		}
	}
	if unsent == 0 {
		t.Error("no request was failed unsent, though each waited past its deadline")
	}
}

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	ladder := []float64{0.5, 0.75, 0.8, 0.9, 0.95, 0.98, 0.99, 0.999}
	for _, c := range []struct {
		n    int
		want float64
	}{{1000, 0.99}, {750, 0.98}, {45, 0.75}, {34, 0.5}, {5, 0.5}} {
		got := tailPercentile(c.n, ladder)
		if got != c.want {
			t.Errorf("n=%d: tail p%v, want p%v", c.n, got*100, c.want*100)
		}
		if c.n >= 2*minBeyond && beyond(c.n, got) < minBeyond {
			t.Errorf("n=%d: only %d samples beyond p%v", c.n, beyond(c.n, got), got*100)
		}
	}
}

func TestSelfTimesSubtractCoveredChildTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(msec int) time.Time { return t0.Add(time.Duration(msec) * time.Millisecond) }
	spans := []span{
		{ID: 0, Parent: -1, Req: 7, Name: "request", Start: at(0), End: at(100)},
		{ID: 1, Parent: 0, Req: 7, Name: "a", Start: at(10), End: at(40)},
		{ID: 2, Parent: 0, Req: 7, Name: "b", Start: at(30), End: at(60)}, // overlaps a
		{ID: 3, Parent: 2, Req: 7, Name: "c", Start: at(35), End: at(45)},
	}
	self := selfTimes(spans)[7]
	want := map[string]time.Duration{"request": 50 * time.Millisecond, "a": 30 * time.Millisecond, "b": 20 * time.Millisecond, "c": 10 * time.Millisecond}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("%s self %v, want %v", name, self[name], w)
		}
	}
}

func TestStageSelfSumsLeaveOutTheRoot(t *testing.T) {
	self := map[int]map[string]time.Duration{
		1: {"request": 5 * time.Millisecond, "a": 30 * time.Millisecond, "b": 20 * time.Millisecond},
	}
	// The root's 5 ms is the part no stage covers; a sum that kept it
	// would always equal the root's duration.
	if got := stageSelfSums(self, "request"); len(got) != 1 || got[0] != 50 {
		t.Errorf("stage self sums %v, want [50]", got)
	}
}

func TestScheduleHoldsTheMixExactly(t *testing.T) {
	reqs := schedule(3, mixBlock, 1000)
	var ingests, sweeps, measures int
	for i, r := range reqs {
		switch {
		case r.delta != nil:
			ingests++
			if i%ingestEvery != ingestEvery-1 {
				t.Errorf("ingest at %d", i)
			}
		case r.tmpl.Measure != "":
			measures++
		default:
			sweeps++
		}
	}
	if ingests != 12 || sweeps != 192 || measures != 36 {
		t.Errorf("one block holds %d ingests, %d sweeps, %d measure reads; want 12, 192, 36", ingests, sweeps, measures)
	}
}
