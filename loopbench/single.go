package main

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pipeleon/internal/analysis"
	"pipeleon/internal/controlplane"
	"pipeleon/internal/core"
	"pipeleon/internal/costmodel"
	"pipeleon/internal/nicsim"
	"pipeleon/internal/opt"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
	"pipeleon/internal/profile"
	"pipeleon/internal/target"
)

// setups is how many times a run builds its rig; setup_s is the median
// and the last rig is the one measured.
const setups = 21

// nicConfig is nicd's emulator configuration.
func nicConfig(col *profile.Collector) nicsim.Config {
	return nicsim.Config{Params: costmodel.BlueField2(), Collector: col, Instrument: true, CacheFillCostNs: 500}
}

// single is one nicd: emulator, runtime with the default deploy guard,
// and the control-plane server, plus the benchmark's client.
type single struct {
	prog  *p4ir.Program
	nic   *nicsim.NIC
	tt    *tracedTarget // nil when untraced
	rt    *core.Runtime
	srv   *controlplane.Server
	cli   *controlplane.Client
	phase atomic.Pointer[phaseTraffic]
}

func (d *single) close() {
	if d.cli != nil {
		d.cli.Close()
	}
	if d.srv != nil {
		d.srv.Close()
	}
}

// setupSingle builds the rig exactly as cmd/nicd does, timing each
// layer's share of set-up.
func setupSingle(s spec, seed uint64, tr *tracer, rpcSpan *atomic.Int32, st *loopStats) (*single, error) {
	d := &single{}
	t0 := time.Now()
	prog, err := loadProgram(s.program)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	col := profile.NewCollector()
	nic, err := nicsim.New(prog, nicConfig(col))
	if err != nil {
		return nil, fmt.Errorf("starting emulator: %w", err)
	}
	t2 := time.Now()
	var tgt target.Target = target.NewLocal(nic, col)
	if tr != nil {
		d.tt, tgt = traceTarget(tgt, tr, "", nil)
	}
	cfg := opt.DefaultConfig()
	cfg.DeepVerify = s.deepVerify
	rt, err := core.NewRuntime(prog, tgt, cfg)
	if err != nil {
		return nil, fmt.Errorf("starting runtime: %w", err)
	}
	sampler := func(n int) []*packet.Packet { return d.phase.Load().sample(n) }
	if tr != nil {
		inner := sampler
		sampler = func(n int) []*packet.Packet {
			id := tr.begin("trafficgen.sampler", -1)
			defer tr.end(id)
			return inner(n)
		}
	}
	rt.SetDeployGuard(core.DefaultDeployGuard(sampler))
	t3 := time.Now()
	var backend controlplane.Backend = rt
	status := func() ([]byte, error) { return json.Marshal(rt.Status()) }
	if tr != nil {
		backend = &tracedBackend{inner: rt, tr: tr, fallback: rpcSpan.Load}
		status = func() ([]byte, error) {
			id := tr.begin("core.status", rpcSpan.Load())
			defer tr.end(id)
			return json.Marshal(rt.Status())
		}
	}
	srv, err := controlplane.NewServer("127.0.0.1:0", backend, col,
		controlplane.WithDevice(tgt), controlplane.WithStatus(status))
	if err != nil {
		return nil, fmt.Errorf("starting control plane: %w", err)
	}
	cli, err := controlplane.Dial(srv.Addr())
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("dialing control plane: %w", err)
	}
	t4 := time.Now()
	d.prog, d.nic, d.rt, d.srv, d.cli = prog, nic, rt, srv, cli
	st.noteSetup(t4.Sub(t0), map[string]time.Duration{
		"p4c.compile_ms":         t1.Sub(t0),
		"nicsim.new_ms":          t2.Sub(t1),
		"core.new_runtime_ms":    t3.Sub(t2),
		"controlplane.listen_ms": t4.Sub(t3),
	})
	return d, nil
}

// runSingle runs nicd's loop — window of traffic, MeasureParallel(batch,
// 0), OptimizeOnce — for the given time, with the open-loop control-plane
// client running alongside.
func runSingle(s spec, seed uint64, lim limit, tr *tracer, st *loopStats) error {
	rpcSpan := new(atomic.Int32)
	rpcSpan.Store(-1)
	var d *single
	for i := 0; i < setups; i++ {
		if d != nil {
			d.close()
		}
		var err error
		if d, err = setupSingle(s, seed, tr, rpcSpan, st); err != nil {
			return err
		}
	}
	defer d.close()

	phases, err := buildPhases(s, d.prog, seed)
	if err != nil {
		return err
	}
	d.phase.Store(phases[0])
	orc, err := newOracle(d.rt.Original(), costmodel.BlueField2())
	if err != nil {
		return err
	}
	st.oracles = []*oracle{orc}
	// The analysis probes read a copy: entry churn mutates the runtime's
	// original program under its lock.
	probeOrig := d.rt.Original().Clone()
	var sem *analysis.SemanticChecker
	if tr != nil && s.deepVerify {
		sem = analysis.NewSemanticChecker(probeOrig)
	}

	// The control-plane client: balanced entry churn on entry-churn,
	// status polls elsewhere.
	var (
		opsMu     sync.Mutex
		ops       []entryOp
		ch        *churner
		lastRound = -1
	)
	send := func(i int) error {
		data, err := d.cli.Stats()
		if err != nil {
			return err
		}
		var rs core.RuntimeStatus
		if err := json.Unmarshal(data, &rs); err != nil {
			return fmt.Errorf("stats reply: %w", err)
		}
		if rs.Round < lastRound {
			st.fail("stats poll saw round %d after round %d", rs.Round, lastRound)
		}
		lastRound = rs.Round
		return nil
	}
	if s.churn {
		if ch, err = newChurner(d.prog, phases[0].flows); err != nil {
			return err
		}
		send = func(i int) error {
			op := ch.op(i)
			var err error
			if op.insert {
				err = d.cli.InsertEntry(op.table, op.entry)
			} else {
				err = d.cli.DeleteEntry(op.table, op.match)
			}
			if err == nil {
				opsMu.Lock()
				ops = append(ops, op)
				opsMu.Unlock()
			}
			return err
		}
	}

	start := time.Now()
	load := startOpenLoop(rpcRate, tr, rpcSpan, send)
	lastRoundAt := time.Now()
	var offLoop time.Duration // bookkeeping and oracle time after the last round
	// The window buffer is refilled in place: the generator stands in
	// for an external one (TRex), so its packets should not load the
	// program's garbage collector. MeasureParallel keeps no packet.
	batch := make([]*packet.Packet, s.windowPkts)
	var lastCaches []nicsim.CacheStats // traced: the previous window's after snapshot
	for w := 0; !lim.done(w, start); w++ {
		ph := phases[(w/s.windowsPerPhase)%len(phases)]
		d.phase.Store(ph)

		id := tr.root("trafficgen.window", "window", w)
		g0 := time.Now()
		ph.gen.BatchInto(batch)
		g1 := time.Now()
		tr.end(id)

		var before []nicsim.CacheStats
		var allocs0 uint64
		if tr != nil {
			before = d.nic.CacheStatsAll()
			allocs0 = heapAllocs()
		}
		id = tr.root("nicsim.window", "window", w)
		m0 := time.Now()
		m := d.nic.MeasureParallel(batch, 0)
		m1 := time.Now()
		tr.end(id)
		if tr != nil {
			st.noteAllocs(heapAllocs() - allocs0)
			after := d.nic.CacheStatsAll()
			st.noteCaches(lastCaches, before, after)
			lastCaches = after
		}
		st.sampleHeap()

		id = tr.root("core.round", "round", w+1)
		r0 := time.Now()
		rep, rerr := d.rt.OptimizeOnce(r0.Sub(lastRoundAt) - offLoop)
		r1 := time.Now()
		tr.end(id)
		lastRoundAt = r1
		st.sampleHeap()
		o0 := time.Now()

		st.noteWindow([]nicsim.Measurement{m}, g1.Sub(g0), m1.Sub(m0), r1.Sub(r0))
		st.noteRound(rep, rerr)
		if tr != nil {
			tr.estimate("opt.search", id, rep.SearchTime)
			for _, dp := range d.tt.takeDeployed() {
				if dp.parent >= 0 && spanParent(tr, dp.parent) == id {
					probeAnalysis(tr, id, probeOrig, dp.prog, sem)
				}
			}
		}

		// Correctness oracle, outside the timed section: the client is
		// held so the runtime's programs and the op log stand still.
		resume := load.hold()
		opsMu.Lock()
		pending := ops
		ops = nil
		opsMu.Unlock()
		err := orc.sync(d.rt.Current(), pending)
		resume()
		if err != nil {
			return err
		}
		orc.check(strided(batch, s.oracleSample))
		if m.Packets != len(batch) {
			st.fail("window %d: measured %d packets of %d", w, m.Packets, len(batch))
		}
		offLoop = time.Since(o0)
	}
	load.stopLoop()
	st.noteLoad(load)

	status := d.rt.Status()
	st.runtime = &status
	st.note("rounds: %d, searched %d, deployed %d, rolled back %d, breaker open %d, blacklisted %d, unchanged %d",
		status.Round, st.searched, status.Deploys, status.RolledBack, status.BreakerOpenRounds,
		status.PlanBlacklistedRounds, status.SkippedUnchanged)
	if s.churn {
		want := len(entryValues(d.prog, churnTable))
		got := len(d.rt.Original().Tables[churnTable].Entries)
		if load.fails == 0 && got != want+len(ch.live) {
			st.fail("churn table %s holds %d entries, want %d", churnTable, got, want+len(ch.live))
		}
		st.note("churn table %s: %d live churn entries, deployed plan covers it: %v",
			churnTable, len(ch.live), planCovers(d.rt.Current(), churnTable))
	}
	return nil
}

// spanParent returns the parent of span id.
func spanParent(tr *tracer, id int32) int32 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.spans[id].Parent
}

// probeAnalysis times the deploy gate's analyses on a program the round
// deployed — analysis.Lint, the rewrite-safety proof and, with deep
// verify, the symbolic lints and semantic-equivalence proof — and
// records them as estimated children of the round. The gate itself runs
// inside OptimizeOnce, where the benchmark cannot see it.
func probeAnalysis(tr *tracer, round int32, orig, prog *p4ir.Program, sem *analysis.SemanticChecker) {
	pm := costmodel.BlueField2()
	t0 := time.Now()
	analysis.Lint(prog, analysis.WithParams(pm))
	t1 := time.Now()
	analysis.VerifyRewrite(orig, prog)
	t2 := time.Now()
	tr.estimate("analysis.lint", round, t1.Sub(t0))
	tr.estimate("analysis.verify_rewrite", round, t2.Sub(t1))
	if sem != nil {
		t3 := time.Now()
		analysis.LintDeep(prog)
		sem.Verify(prog)
		tr.estimate("analysis.verify_semantics", round, time.Since(t3))
	}
}

// planCovers reports whether the deployed program no longer holds table
// as a plain table of its own: a cache or merged table covers it.
func planCovers(cur *p4ir.Program, table string) bool {
	for _, t := range cur.Tables {
		for _, c := range splitCSV(t.Annotations[p4ir.AnnotCovers]) {
			if c == table {
				return true
			}
		}
	}
	return false
}

func splitCSV(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}

// strided picks n packets spread evenly over the batch.
func strided(batch []*packet.Packet, n int) []*packet.Packet {
	if n >= len(batch) {
		return batch
	}
	out := make([]*packet.Packet, n)
	step := len(batch) / n
	for i := range out {
		out[i] = batch[i*step]
	}
	return out
}
