package main

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// openLoop sends one control-plane request every 1/rate seconds on a
// fixed schedule, whatever the previous request's fate: a stalled
// request delays the ones behind it, and each is timed from the moment
// it was due, so the wait a stall imposes on later requests is counted.
// The client is synchronous (one request in flight), like an operator's
// p4cctl or a controller's single connection.
//
// The loop goroutine pauses the sender while the correctness oracle
// reads the runtime's programs; paused time shifts the schedule instead
// of counting as latency.
type openLoop struct {
	rate float64
	send func(i int) error
	tr   *tracer

	pause   sync.Mutex
	pausedN atomic.Int64  // total paused time, ns
	rpcSpan *atomic.Int32 // span of the request in flight, for the server-side wrappers

	stop chan struct{}
	done chan struct{}

	// Results, read after stopLoop returns.
	latUs []float64 // from due time; failed requests are +Inf
	lagUs []float64 // how late each send started
	sent  int
	fails int
}

func startOpenLoop(rate float64, tr *tracer, rpcSpan *atomic.Int32, send func(i int) error) *openLoop {
	l := &openLoop{rate: rate, send: send, tr: tr, rpcSpan: rpcSpan, stop: make(chan struct{}), done: make(chan struct{})}
	go l.run()
	return l
}

func (l *openLoop) run() {
	defer close(l.done)
	start := time.Now()
	period := time.Duration(float64(time.Second) / l.rate)
	for i := 0; ; i++ {
		var due time.Time
		for {
			due = start.Add(time.Duration(i)*period + time.Duration(l.pausedN.Load()))
			if d := time.Until(due); d > 0 {
				t := time.NewTimer(d)
				select {
				case <-l.stop:
					t.Stop()
					return
				case <-t.C:
				}
			} else {
				select {
				case <-l.stop:
					return
				default:
				}
			}
			l.pause.Lock()
			// A pause that began after due was computed moved the
			// schedule; wait for the new due time.
			if start.Add(time.Duration(i)*period + time.Duration(l.pausedN.Load())).After(due) {
				l.pause.Unlock()
				continue
			}
			break
		}
		sent := time.Now()
		id := l.tr.root("controlplane.rpc", "rpc", i)
		l.rpcSpan.Store(id)
		err := l.send(i)
		l.tr.end(id)
		l.rpcSpan.Store(-1)
		doneAt := time.Now()
		l.pause.Unlock()

		l.sent++
		l.lagUs = append(l.lagUs, float64(sent.Sub(due))/1e3)
		if err != nil {
			l.fails++
			l.latUs = append(l.latUs, math.Inf(1))
		} else {
			l.latUs = append(l.latUs, float64(doneAt.Sub(due))/1e3)
		}
	}
}

// hold stops the sender between requests and returns the function that
// resumes it.
func (l *openLoop) hold() func() {
	l.pause.Lock()
	t := time.Now()
	return func() {
		l.pausedN.Add(int64(time.Since(t)))
		l.pause.Unlock()
	}
}

// stopLoop ends the sender and waits for it to exit.
func (l *openLoop) stopLoop() {
	close(l.stop)
	<-l.done
}

// limit ends a loop after a time or, in tests, after a number of windows.
type limit struct {
	seconds float64
	windows int
}

func (l limit) done(w int, start time.Time) bool {
	if l.windows > 0 {
		return w >= l.windows
	}
	return time.Since(start).Seconds() >= l.seconds
}
