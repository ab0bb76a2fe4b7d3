package main

import (
	"sync"

	"pipeleon/internal/controlplane"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
	"pipeleon/internal/profile"
	"pipeleon/internal/target"
)

// tracedTarget times every call into a target.Target. It is installed
// only in the traced run: the runtime, the control-plane server and the
// fleet controller see it as their device and never know it is there.
type tracedTarget struct {
	inner target.Target
	tr    *tracer
	where string // fleet device name, "" for the runtime's target
	// fallback names the span a call belongs to when the calling
	// goroutine has no open span (fleet rollouts deploy from goroutines
	// of their own).
	fallback func() int32

	mu       sync.Mutex
	deployed []deployedProg
}

// deployedProg is a program the target was asked to deploy inside a
// span, kept so the analysis probes can time the gate on it afterwards.
type deployedProg struct {
	prog   *p4ir.Program
	parent int32
}

// traceTarget wraps inner, returning the wrapper and the target to hand
// out. The latter also implements target.BatchMeasurer exactly when
// inner does, so callers that type-assert for it behave the same with
// and without the wrapper.
func traceTarget(inner target.Target, tr *tracer, where string, fallback func() int32) (*tracedTarget, target.Target) {
	t := &tracedTarget{inner: inner, tr: tr, where: where, fallback: fallback}
	if _, ok := inner.(target.BatchMeasurer); ok {
		return t, &tracedBatchTarget{t}
	}
	return t, t
}

func (t *tracedTarget) begin(name string) int32 {
	fb := int32(-1)
	if t.fallback != nil {
		fb = t.fallback()
	}
	return t.tr.beginOn(name, t.where, fb)
}

// takeDeployed returns and forgets the programs deployed so far.
func (t *tracedTarget) takeDeployed() []deployedProg {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.deployed
	t.deployed = nil
	return out
}

func (t *tracedTarget) Program() *p4ir.Program {
	id := t.begin("target.program")
	defer t.tr.end(id)
	return t.inner.Program()
}

func (t *tracedTarget) Deploy(prog *p4ir.Program) error {
	id := t.begin("target.deploy")
	err := t.inner.Deploy(prog)
	t.tr.end(id)
	t.mu.Lock()
	t.deployed = append(t.deployed, deployedProg{prog, id})
	t.mu.Unlock()
	return err
}

func (t *tracedTarget) Commit() error {
	id := t.begin("target.commit")
	defer t.tr.end(id)
	return t.inner.Commit()
}

func (t *tracedTarget) Rollback() error {
	id := t.begin("target.rollback")
	defer t.tr.end(id)
	return t.inner.Rollback()
}

func (t *tracedTarget) Measure(pkts []*packet.Packet) (target.Measurement, error) {
	id := t.begin("target.measure")
	defer t.tr.end(id)
	return t.inner.Measure(pkts)
}

func (t *tracedTarget) Profile(reset bool) (*profile.Profile, error) {
	id := t.begin("profile.snapshot")
	defer t.tr.end(id)
	return t.inner.Profile(reset)
}

func (t *tracedTarget) CacheStats() ([]target.CacheStats, error) {
	id := t.begin("target.cachestats")
	defer t.tr.end(id)
	return t.inner.CacheStats()
}

func (t *tracedTarget) InsertEntry(table string, e p4ir.Entry) error {
	id := t.begin("target.entry_op")
	defer t.tr.end(id)
	return t.inner.InsertEntry(table, e)
}

func (t *tracedTarget) DeleteEntry(table string, match []p4ir.MatchValue) error {
	id := t.begin("target.entry_op")
	defer t.tr.end(id)
	return t.inner.DeleteEntry(table, match)
}

func (t *tracedTarget) ModifyEntry(table string, match []p4ir.MatchValue, action string, args []string) error {
	id := t.begin("target.entry_op")
	defer t.tr.end(id)
	return t.inner.ModifyEntry(table, match, action, args)
}

func (t *tracedTarget) Capabilities() target.Capabilities { return t.inner.Capabilities() }

func (t *tracedTarget) Close() error { return t.inner.Close() }

type tracedBatchTarget struct{ *tracedTarget }

func (t *tracedBatchTarget) MeasureParallel(pkts []*packet.Packet, workers int) (target.Measurement, error) {
	id := t.begin("target.measure")
	defer t.tr.end(id)
	return t.inner.(target.BatchMeasurer).MeasureParallel(pkts, workers)
}

// tracedBackend times the entry path through a controlplane.Backend (the
// runtime's API mapping). A server handles each request on its
// connection goroutine, so spans hang under the client's rpc span given
// by fallback.
type tracedBackend struct {
	inner    controlplane.Backend
	tr       *tracer
	fallback func() int32
}

func (b *tracedBackend) begin() int32 {
	return b.tr.begin("core.entry_op", b.fallback())
}

func (b *tracedBackend) InsertEntry(table string, e p4ir.Entry) error {
	id := b.begin()
	defer b.tr.end(id)
	return b.inner.InsertEntry(table, e)
}

func (b *tracedBackend) DeleteEntry(table string, match []p4ir.MatchValue) error {
	id := b.begin()
	defer b.tr.end(id)
	return b.inner.DeleteEntry(table, match)
}

func (b *tracedBackend) ModifyEntry(table string, match []p4ir.MatchValue, action string, args []string) error {
	id := b.begin()
	defer b.tr.end(id)
	return b.inner.ModifyEntry(table, match, action, args)
}

func (b *tracedBackend) Current() *p4ir.Program { return b.inner.Current() }

// TranslatedCounters keeps the server's counters op on the runtime's
// translated view, which it selects by type assertion on the backend.
func (b *tracedBackend) TranslatedCounters() *profile.Profile {
	return b.inner.(interface{ TranslatedCounters() *profile.Profile }).TranslatedCounters()
}
