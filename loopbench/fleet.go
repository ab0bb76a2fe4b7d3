package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"pipeleon/internal/analysis"
	"pipeleon/internal/controlplane"
	"pipeleon/internal/costmodel"
	"pipeleon/internal/fleet"
	"pipeleon/internal/nicsim"
	"pipeleon/internal/opt"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
	"pipeleon/internal/profile"
	"pipeleon/internal/target"
	"pipeleon/internal/target/remote"
)

// fleetDev is one in-process device-only nicd: emulator, Local target
// and a control-plane server with WithDevice and no runtime.
type fleetDev struct {
	nic   *nicsim.NIC
	local *target.Local
	srv   *controlplane.Server
	tt    *tracedTarget // the controller's traced view of it, nil when untraced
}

type fleetRig struct {
	base *p4ir.Program
	devs []*fleetDev
	ctl  *fleet.Controller
	cli  *controlplane.Client // the open-loop status poller, on device 0
}

func (f *fleetRig) close() {
	if f.cli != nil {
		f.cli.Close()
	}
	for _, d := range f.devs {
		d.srv.Close()
	}
}

// setupFleet starts the device servers and a fleet.Controller that
// reaches each of them through target/remote.
func setupFleet(s spec, seed uint64, tr *tracer, fleetSpan *atomic.Int32, st *loopStats) (*fleetRig, error) {
	f := &fleetRig{}
	t0 := time.Now()
	base, err := loadProgram(s.program)
	if err != nil {
		return nil, err
	}
	f.base = base
	t1 := time.Now()
	for i := 0; i < s.fleetDevices; i++ {
		col := profile.NewCollector()
		nic, err := nicsim.New(base.Clone(), nicConfig(col))
		if err != nil {
			f.close()
			return nil, fmt.Errorf("starting device %d: %w", i, err)
		}
		f.devs = append(f.devs, &fleetDev{nic: nic, local: target.NewLocal(nic, col)})
	}
	t2 := time.Now()
	f.ctl = fleet.New(fleet.Options{Optimizer: opt.DefaultConfig()})
	for i, d := range f.devs {
		srv, err := controlplane.NewServer("127.0.0.1:0", nil, nil, controlplane.WithDevice(d.local))
		if err != nil {
			f.close()
			return nil, fmt.Errorf("starting device %d server: %w", i, err)
		}
		d.srv = srv
		rem, err := remote.Dial(srv.Addr())
		if err != nil {
			f.close()
			return nil, fmt.Errorf("dialing device %d: %w", i, err)
		}
		name := fmt.Sprintf("dev%d", i)
		var tgt target.Target = rem
		if tr != nil {
			d.tt, tgt = traceTarget(rem, tr, name, fleetSpan.Load)
		}
		if err := f.ctl.Add(name, tgt); err != nil {
			f.close()
			return nil, err
		}
	}
	cli, err := controlplane.Dial(f.devs[0].srv.Addr())
	if err != nil {
		f.close()
		return nil, fmt.Errorf("dialing device 0: %w", err)
	}
	f.cli = cli
	t3 := time.Now()
	st.noteSetup(t3.Sub(t0), map[string]time.Duration{
		"p4c.compile_ms":         t1.Sub(t0),
		"nicsim.new_ms":          t2.Sub(t1),
		"controlplane.listen_ms": t3.Sub(t2),
	})
	return f, nil
}

// runFleet runs fleetd's optimize loop: each cycle sends a window of the
// current phase into every device, then calls OptimizeAndRollout.
func runFleet(s spec, seed uint64, lim limit, tr *tracer, st *loopStats) error {
	fleetSpan := new(atomic.Int32)
	fleetSpan.Store(-1)
	var f *fleetRig
	for i := 0; i < setups; i++ {
		if f != nil {
			f.close()
		}
		var err error
		if f, err = setupFleet(s, seed, tr, fleetSpan, st); err != nil {
			return err
		}
	}
	defer f.close()

	phases, err := buildPhases(s, f.base, seed)
	if err != nil {
		return err
	}
	var cur atomic.Pointer[phaseTraffic]
	cur.Store(phases[0])
	sampler := func(n int) []*packet.Packet { return cur.Load().sample(n) }
	if tr != nil {
		inner := sampler
		sampler = func(n int) []*packet.Packet {
			id := tr.begin("trafficgen.sampler", fleetSpan.Load())
			defer tr.end(id)
			return inner(n)
		}
	}
	rcfg := fleet.DefaultRolloutConfig(sampler)
	for range f.devs {
		orc, err := newOracle(f.base, costmodel.BlueField2())
		if err != nil {
			return err
		}
		st.oracles = append(st.oracles, orc)
	}

	poll := func(int) error {
		_, err := f.cli.Stats()
		return err
	}
	start := time.Now()
	load := startOpenLoop(rpcRate, tr, new(atomic.Int32), poll)
	// Window buffers are refilled in place, as in runSingle.
	batches := make([][]*packet.Packet, len(f.devs))
	for i := range batches {
		batches[i] = make([]*packet.Packet, s.windowPkts)
	}
	var searchNs int64
	for c := 0; !lim.done(c, start); c++ {
		ph := phases[(c/s.windowsPerPhase)%len(phases)]
		cur.Store(ph)

		id := tr.root("trafficgen.window", "window", c)
		g0 := time.Now()
		for i := range batches {
			ph.gen.BatchInto(batches[i])
		}
		g1 := time.Now()
		tr.end(id)

		ms := make([]nicsim.Measurement, len(f.devs))
		var allocs0 uint64
		if tr != nil {
			allocs0 = heapAllocs()
		}
		id = tr.root("nicsim.window", "window", c)
		m0 := time.Now()
		for i, d := range f.devs {
			// Each window is one profiling window on the device.
			if _, err := d.local.Profile(true); err != nil {
				return err
			}
			ms[i] = d.nic.MeasureParallel(batches[i], 0)
		}
		m1 := time.Now()
		tr.end(id)
		if tr != nil {
			st.noteAllocs(heapAllocs() - allocs0)
		}
		st.sampleHeap()

		// One supervision step, as fleetd's probe loop takes on its
		// ticker: quarantined devices sit out, then recover on probation.
		id = tr.root("fleet.probe", "probe", c)
		fleetSpan.Store(id)
		p0 := time.Now()
		f.ctl.ProbeAll()
		probe := time.Since(p0)
		fleetSpan.Store(-1)
		tr.end(id)

		id = tr.root("fleet.rollout", "rollout", c)
		fleetSpan.Store(id)
		r0 := time.Now()
		reports, rerr := f.ctl.OptimizeAndRollout(f.base, rcfg)
		r1 := time.Now()
		fleetSpan.Store(-1)
		tr.end(id)
		st.sampleHeap()

		st.noteWindow(ms, g1.Sub(g0), m1.Sub(m0)+probe, r1.Sub(r0))
		st.noteRollout(reports, rerr)
		total := f.ctl.Status().OptSearch.TotalSearchNs
		st.noteSearch(time.Duration(total - searchNs))
		tr.estimate("opt.search", id, time.Duration(total-searchNs))
		searchNs = total
		if tr != nil {
			pm := costmodel.BlueField2()
			for _, d := range f.devs {
				for _, dp := range d.tt.takeDeployed() {
					// The device server lints every staged program.
					t := time.Now()
					analysis.Lint(dp.prog, analysis.WithParams(pm))
					tr.estimate("analysis.lint", dp.parent, time.Since(t))
				}
			}
		}

		for i, d := range f.devs {
			orc := st.oracles[i]
			if err := orc.sync(d.local.Program(), nil); err != nil {
				return err
			}
			orc.check(strided(batches[i], s.oracleSample))
			if ms[i].Packets != len(batches[i]) {
				st.fail("cycle %d: dev%d measured %d packets of %d", c, i, ms[i].Packets, len(batches[i]))
			}
		}
	}
	load.stopLoop()
	st.noteLoad(load)
	fs := f.ctl.Status()
	st.fleet = &fs
	quarantines := uint64(0)
	for _, d := range fs.Devices {
		quarantines += d.Quarantines
	}
	st.note("rollouts: %d, halted %d, fleet rollbacks %d, device quarantines %d, plan cache %d hits / %d misses",
		fs.Rollouts, fs.HaltedRollouts, fs.FleetRollbacks, quarantines, fs.PlanCache.Hits, fs.PlanCache.Misses)
	return nil
}
