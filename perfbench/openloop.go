package main

import (
	"context"
	"sync"
	"time"
)

// openLoop drives requests on a fixed schedule, whatever the system's
// speed: request i is due at i/Rate seconds after the start. A request
// that waits for a free connection keeps its due time, so a stall shows
// in the latency of every request queued behind it.
type openLoop struct {
	// Rate is the arrival rate in requests per second.
	Rate float64
	// Duration is the length of the schedule.
	Duration time.Duration
	// Conns bounds the requests in flight (one connection each).
	Conns int
	// Timeout is the longest a request may take from its due time; a
	// request still unsent by then is failed without being sent, and a
	// failed request's latency is counted as at least Timeout.
	Timeout time.Duration
}

// outcome is one scheduled request as the generator saw it. Offsets are
// from the schedule's start.
type outcome struct {
	Due  time.Duration
	Late time.Duration // dispatch time minus due time: the generator's own lateness
	Sent bool
	OK   bool
	// Latency runs from the due time to completion; for a failed
	// request it is at least the generator's Timeout.
	Latency time.Duration
}

// n is the number of requests the schedule holds.
func (o openLoop) n() int { return int(o.Duration.Seconds() * o.Rate) }

// due is request i's offset from the start.
func (o openLoop) due(i int) time.Duration {
	return time.Duration(float64(i) / o.Rate * float64(time.Second))
}

// run sends every scheduled request through send and returns their
// outcomes in schedule order. send reports whether the request got a
// correct answer; it must honour ctx. run returns once every sender
// has finished.
func (o openLoop) run(ctx context.Context, send func(ctx context.Context, i int) bool) []outcome {
	n := o.n()
	out := make([]outcome, n)
	// Sized to the number of sends, so the dispatcher never blocks on a
	// busy pool and its lateness measures only its own scheduling.
	queue := make(chan int, n)
	conns := max(o.Conns, 1)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				r := o.send(ctx, start, i, send)
				r.Late = out[i].Late // written by the dispatcher before the hand-off
				out[i] = r
			}
		}()
	}
	for i := 0; i < n; i++ {
		due := o.due(i)
		if wait := time.Until(start.Add(due)); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
			}
		}
		out[i].Due = due
		out[i].Late = max(time.Since(start)-due, 0)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return out
}

// send issues request i through do unless its deadline has already
// passed.
func (o openLoop) send(ctx context.Context, start time.Time, i int, do func(ctx context.Context, i int) bool) outcome {
	due := o.due(i)
	r := outcome{Due: due}
	deadline := start.Add(due + o.Timeout)
	if time.Now().Before(deadline) && ctx.Err() == nil {
		rctx, cancel := context.WithDeadline(ctx, deadline)
		r.Sent = true
		r.OK = do(rctx, i)
		cancel()
	}
	r.Latency = time.Since(start) - due
	if !r.OK {
		r.Latency = max(r.Latency, o.Timeout)
	}
	return r
}

// loopSummary condenses outcomes into the end-to-end figures.
type loopSummary struct {
	Attempted, OK, WithinLimit int
	P50, Tail, LateTail        time.Duration
	TailBeyond                 int
}

// summarize reads the median and the tailP quantile of latency over
// every attempted request (failures included, at their inflated
// latency), the goodput count under limit, and the tailP quantile of
// generator lateness.
func summarize(outs []outcome, tailP float64, limit time.Duration) loopSummary {
	s := loopSummary{Attempted: len(outs)}
	lat := make([]float64, len(outs))
	late := make([]float64, len(outs))
	for i, o := range outs {
		lat[i] = float64(o.Latency)
		late[i] = float64(o.Late)
		if o.OK {
			s.OK++
			if o.Latency <= limit {
				s.WithinLimit++
			}
		}
	}
	s.P50 = time.Duration(median(lat))
	s.Tail = time.Duration(quantile(lat, tailP))
	s.LateTail = time.Duration(quantile(late, tailP))
	s.TailBeyond = beyond(len(outs), tailP)
	return s
}
