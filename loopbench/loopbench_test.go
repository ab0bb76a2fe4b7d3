package main

import (
	"math"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/nicsim"
	"pipeleon/internal/opt"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/pipelet"
	"pipeleon/internal/profile"
)

// The benchmark reads testdata/dash.p4 relative to the repository root.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// TestTracingDoesNotChangeOutcomes runs the same workload and seed with
// and without the timing wrappers and checks that every round decided
// the same (plan, deploy, rollback, breaker, blacklist) and every window
// modeled the same latencies. One datapath worker keeps the emulator's
// cache fills in a fixed order, so the two runs are comparable packet
// for packet.
func TestTracingDoesNotChangeOutcomes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, name := range []string{"phase-shift", "steady-forward"} {
		t.Run(name, func(t *testing.T) {
			s, _ := specByName(name)
			windows := 24
			if name == "steady-forward" {
				windows = 12
			}
			run := func(tr *tracer) *loopStats {
				st := &loopStats{}
				if err := runSingle(s, 7, limit{windows: windows}, tr, st); err != nil {
					t.Fatal(err)
				}
				return st
			}
			plain, traced := run(nil), run(newTracer())
			if len(plain.outcomes) != windows {
				t.Fatalf("untraced run made %d rounds, want %d", len(plain.outcomes), windows)
			}
			for i := range plain.outcomes {
				if plain.outcomes[i] != traced.outcomes[i] {
					t.Fatalf("round %d differs:\n untraced: %s\n   traced: %s", i+1, plain.outcomes[i], traced.outcomes[i])
				}
			}
			// The predicted gain is compared to a tolerance: two untraced
			// runs of the same seed already differ in it by a few parts
			// per million on steady-forward (the round's baseline latency
			// moves with them), while every decision and modeled latency
			// stays identical.
			for i := range plain.gains {
				if d := math.Abs(plain.gains[i] - traced.gains[i]); d > 1e-4*math.Abs(plain.gains[i]) {
					t.Fatalf("round %d gain differs: untraced %v, traced %v", i+1, plain.gains[i], traced.gains[i])
				}
			}
			if !reflect.DeepEqual(plain.winMean, traced.winMean) || !reflect.DeepEqual(plain.winP99, traced.winP99) {
				t.Fatalf("modeled latencies differ:\n untraced: %v\n   traced: %v", plain.winMean, traced.winMean)
			}
			deployed := 0
			for _, o := range plain.outcomes {
				if strings.Contains(o, "deployed=true") {
					deployed++
				}
			}
			if name == "phase-shift" && deployed == 0 {
				t.Fatal("phase-shift deployed nothing; the comparison exercised no deploys")
			}
		})
	}
}

// optimizedLB returns the phase-shift program and a layout the optimizer
// chose for its drop_src phase, so the oracle is exercised on a real
// rewrite (reordered and cached tables), not on a copy of the original.
func optimizedLB(t *testing.T) (orig, optimized *p4ir.Program, ph *phaseTraffic) {
	t.Helper()
	orig, err := loadProgram("lb")
	if err != nil {
		t.Fatal(err)
	}
	phases, err := buildPhases(spec{phases: []string{"drop_src"}}, orig, 3)
	if err != nil {
		t.Fatal(err)
	}
	col := profile.NewCollector()
	nic, err := nicsim.New(orig.Clone(), nicConfig(col))
	if err != nil {
		t.Fatal(err)
	}
	nic.Measure(phases[0].gen.Batch(4096))
	res, rw, err := opt.SearchAndApply(orig, col.Snapshot(), costmodel.BlueField2(), opt.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rw == nil || len(res.Plan) == 0 {
		t.Fatal("the optimizer found no plan for the drop_src phase")
	}
	return orig, rw.Program, phases[0]
}

func TestOracleAcceptsOptimizedLayout(t *testing.T) {
	orig, optimized, ph := optimizedLB(t)
	o, err := newOracle(orig, costmodel.BlueField2())
	if err != nil {
		t.Fatal(err)
	}
	if err := o.sync(optimized, nil); err != nil {
		t.Fatal(err)
	}
	if bad := o.check(ph.gen.Batch(2048)); bad != 0 {
		t.Fatalf("%d of 2048 packets disagree on a correct rewrite: %s", bad, o.firstDiff)
	}
}

// TestOracleCatchesCorruptedLayout breaks the optimized layout the way a
// faulty rewrite could — the drop ACL loses its deny entry — and checks
// that the oracle reports the packets that now pass.
func TestOracleCatchesCorruptedLayout(t *testing.T) {
	orig, optimized, ph := optimizedLB(t)
	bad := optimized.Clone()
	acl, ok := bad.Tables["acl_src"]
	if !ok {
		t.Fatalf("optimized layout has no acl_src table: %v", bad.NodeNames())
	}
	acl.Entries = nil
	o, err := newOracle(orig, costmodel.BlueField2())
	if err != nil {
		t.Fatal(err)
	}
	if err := o.sync(bad, nil); err != nil {
		t.Fatal(err)
	}
	if n := o.check(ph.gen.Batch(2048)); n == 0 {
		t.Fatal("the oracle passed a layout whose ACL no longer drops")
	}
	if o.firstDiff == "" {
		t.Fatal("mismatch without a description")
	}
}

// TestOracleFollowsEntryOps checks that replayed entry operations reach
// both shadows: after the same insert on each side they agree, and an
// insert the deployed side misses is caught.
func TestOracleFollowsEntryOps(t *testing.T) {
	orig, err := loadProgram("lb")
	if err != nil {
		t.Fatal(err)
	}
	phases, err := buildPhases(spec{phases: []string{"local"}}, orig, 5)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := newChurner(orig, phases[0].flows)
	if err != nil {
		t.Fatal(err)
	}
	o, err := newOracle(orig, costmodel.BlueField2())
	if err != nil {
		t.Fatal(err)
	}
	cur := orig.Clone()
	if err := o.sync(cur, nil); err != nil {
		t.Fatal(err)
	}
	var ops []entryOp
	for i := 0; i < churnLive; i++ {
		ops = append(ops, ch.op(i))
	}
	if err := o.sync(cur, ops); err != nil {
		t.Fatal(err)
	}
	sample := phases[0].gen.Batch(2048)
	if bad := o.check(sample); bad != 0 {
		t.Fatalf("%d packets disagree after the same entry ops on both sides: %s", bad, o.firstDiff)
	}
	// The deployed side misses one insert: packets to that destination
	// lose their backend.
	missed := ch.op(churnLive + 1)
	if err := missed.apply(o.ref); err != nil {
		t.Fatal(err)
	}
	if bad := o.check(sample); bad == 0 {
		t.Fatal("an insert applied only to the original went unnoticed")
	}
}

// TestOracleCatchesStaleCacheAfterRedeploy checks that the oracle sees
// what the device does when an entry operation reaches it through a
// redeploy of the same plan: NIC.Swap keeps every runtime cache whose
// identity is unchanged, so a cache warmed before an insert into a table
// it covers keeps answering with the results from before the insert.
// The optimizer's own plans for lb.p4 cover lb only with a pre-populated
// merged cache, which is rebuilt from the entries on every redeploy; the
// layout here adds a runtime cache over that merged span by hand, so the
// table is covered by a runtime cache and still takes the redeploy path.
func TestOracleCatchesStaleCacheAfterRedeploy(t *testing.T) {
	orig, err := loadProgram("lb")
	if err != nil {
		t.Fatal(err)
	}
	phases, err := buildPhases(spec{phases: []string{"local"}}, orig, 5)
	if err != nil {
		t.Fatal(err)
	}
	// The plan the runtime settles on for this traffic merges lb with
	// the ACL after it into a pre-populated merged cache.
	part, err := pipelet.Form(orig, orig.TableCount())
	if err != nil {
		t.Fatal(err)
	}
	pl := part.Pipelets[0]
	at := -1
	for i, name := range pl.Tables {
		if name == churnTable {
			at = i
		}
	}
	if at < 0 || at+1 >= len(pl.Tables) {
		t.Fatalf("pipelet %v has no table after %s", pl.Tables, churnTable)
	}
	cfg := opt.DefaultConfig()
	plan := []*opt.Option{{Kind: opt.OptPipelet, Pipelet: pl, Order: append([]string(nil), pl.Tables...),
		Segments: []opt.Segment{{Kind: opt.SegMerge, Start: at, Len: 2}}}}
	// layout re-applies the plan to the given original, as the runtime's
	// redeploy does, and puts a runtime cache in front of the merged
	// table that covers lb.
	layout := func(p *p4ir.Program) *p4ir.Program {
		rw, err := opt.Apply(p, plan, cfg)
		if err != nil {
			t.Fatal(err)
		}
		out := rw.Program
		var merged *p4ir.Table
		for _, tb := range out.Tables {
			if tb.Annotations[p4ir.AnnotKind] == p4ir.KindMergedCache && strings.Contains(tb.Annotations[p4ir.AnnotCovers], churnTable) {
				merged = tb
			}
		}
		if merged == nil || fastPath(out, churnTable) {
			t.Fatalf("the plan does not merge %s into a merged cache", churnTable)
		}
		spec, _ := merged.CacheMeta()
		name := "__cache__lb_span"
		var keys []p4ir.Key
		seen := map[string]bool{}
		for _, c := range spec.Covers {
			for _, k := range out.Tables[c].Keys {
				if !seen[k.Field] {
					seen[k.Field] = true
					keys = append(keys, p4ir.Key{Field: k.Field, Kind: p4ir.MatchExact, Width: k.Width})
				}
			}
		}
		for _, tb := range out.Tables {
			if tb.BaseNext == merged.Name {
				tb.BaseNext = name
			}
			for a, nxt := range tb.ActionNext {
				if nxt == merged.Name {
					tb.ActionNext[a] = name
				}
			}
			if cs, ok := tb.CacheMeta(); ok && (cs.HitNext == merged.Name || cs.MissNext == merged.Name) {
				if cs.HitNext == merged.Name {
					cs.HitNext = name
				}
				if cs.MissNext == merged.Name {
					cs.MissNext = name
				}
				tb.SetCacheMeta(cs)
			}
		}
		for _, c := range out.Conds {
			if c.TrueNext == merged.Name {
				c.TrueNext = name
			}
			if c.FalseNext == merged.Name {
				c.FalseNext = name
			}
		}
		if out.Root == merged.Name {
			out.Root = name
		}
		ct := &p4ir.Table{
			Name:          name,
			Keys:          keys,
			Actions:       []*p4ir.Action{{Name: "cache_hit"}, {Name: "cache_miss"}},
			DefaultAction: "cache_miss",
			ActionNext:    map[string]string{"cache_hit": spec.HitNext, "cache_miss": merged.Name},
			MaxEntries:    1024,
		}
		ct.SetCacheMeta(p4ir.CacheSpec{
			Table: name, Kind: p4ir.KindCache, Covers: append([]string{merged.Name}, spec.Covers...),
			HitNext: spec.HitNext, MissNext: merged.Name, Budget: 1024,
		})
		out.Tables[name] = ct
		if err := out.Validate(); err != nil {
			t.Fatal(err)
		}
		return out
	}

	o, err := newOracle(orig, costmodel.BlueField2())
	if err != nil {
		t.Fatal(err)
	}
	if err := o.sync(layout(orig), nil); err != nil {
		t.Fatal(err)
	}
	sample := phases[0].gen.Batch(2048)
	if bad := o.check(sample); bad != 0 {
		t.Fatalf("%d packets disagree on the layout before any entry op: %s", bad, o.firstDiff)
	}
	// An insert for a destination the sample sends to: the runtime takes
	// the redeploy path and swaps in the same plan over the new entries.
	ch, err := newChurner(orig, phases[0].flows)
	if err != nil {
		t.Fatal(err)
	}
	op := ch.op(0)
	updated := orig.Clone()
	updated.Tables[churnTable].Entries = append(updated.Tables[churnTable].Entries, op.entry)
	redeployed := layout(updated)
	if err := o.sync(redeployed, []entryOp{op}); err != nil {
		t.Fatal(err)
	}
	if bad := o.check(sample); bad == 0 {
		t.Fatal("a runtime cache carried across the redeploy with pre-insert results went unnoticed")
	}
	// The same layout on a fresh device, with cold caches, is correct.
	fresh, err := newOracle(updated, costmodel.BlueField2())
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.sync(redeployed, nil); err != nil {
		t.Fatal(err)
	}
	if bad := fresh.check(sample); bad != 0 {
		t.Fatalf("%d packets disagree on the redeployed layout with cold caches: %s", bad, fresh.firstDiff)
	}
}
