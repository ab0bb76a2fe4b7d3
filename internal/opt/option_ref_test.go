package opt

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/deps"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/pipelet"
	"pipeleon/internal/profile"
	"pipeleon/internal/synth"
)

// enumerateSegmentations returns every way to assign disjoint contiguous
// cache and merge segments over the order (§4.2: "for each top-k pipelet,
// Pipeleon computes all possible optimizations for each technique
// independently [and] enumerates all valid combinations"). Merging and
// caching never apply to the same table, which disjointness enforces.
// LocalOptimize's fused recursion walks the same segmentations in the same
// order under the same MaxSegmentations cap.
func enumerateSegmentations(order []string, an *deps.Analyzer, cfg Config) [][]Segment {
	n := len(order)
	maxSegs := cfg.MaxSegmentations
	if maxSegs <= 0 {
		maxSegs = 20000
	}
	var out [][]Segment
	var rec func(pos int, acc []Segment)
	rec = func(pos int, acc []Segment) {
		if len(out) >= maxSegs {
			return
		}
		if pos == n {
			out = append(out, append([]Segment(nil), acc...))
			return
		}
		// (a) leave the table at pos untouched.
		rec(pos+1, acc)
		// (b) cache segment starting here.
		if cfg.EnableCache {
			for l := 1; pos+l <= n; l++ {
				span := order[pos : pos+l]
				if !an.CanCache(span) {
					break // a longer span contains the same violation
				}
				rec(pos+l, append(acc, Segment{Kind: SegCache, Start: pos, Len: l}))
			}
		}
		// (c) merge segment starting here.
		if cfg.EnableMerge {
			maxL := cfg.MergeCap
			if maxL < 2 {
				maxL = 2
			}
			for l := 2; l <= maxL && pos+l <= n; l++ {
				span := order[pos : pos+l]
				if !an.CanMerge(span) {
					break
				}
				rec(pos+l, append(acc, Segment{Kind: SegMerge, Start: pos, Len: l}))
			}
		}
	}
	rec(0, nil)
	return out
}

// refSeqLatency scores one layout from scratch, element by element, with
// the arithmetic written out inline: the specification the fused search
// and seqLatencyIdx must reproduce bit for bit.
func refSeqLatency(ev *Evaluator, order []string, idxs []int, segs []Segment) float64 {
	flow := 1.0
	var total float64
	si := 0
	for i := 0; i < len(idxs); {
		if si < len(segs) && segs[si].Start == i {
			s := segs[si]
			si++
			span := idxs[i : i+s.Len]
			key := SpanKey(order[i : i+s.Len])
			origCost, actSum, dropP := ev.spanStatsIdx(span)
			if s.Kind == SegCache {
				h, ok := ev.cfg.HitRateOverride[key]
				if !ok {
					h = ev.cfg.hitEstimate(ev.workingSetIdx(span))
				}
				h = ev.invalidationDiscount(h, span)
				total += flow * (ev.pm.Lmat + h*actSum + (1-h)*origCost)
			} else if ev.allExactIdx(span) {
				h, ok := ev.cfg.HitRateOverride[key]
				if !ok {
					h = ev.cfg.MergedCacheHitRate
				}
				total += flow * (ev.pm.Lmat + h*actSum + (1-h)*origCost)
			} else {
				m := ev.mergedMIdx(span)
				total += flow * (float64(m)*ev.pm.Lmat + actSum)
			}
			flow *= 1 - dropP
			i += s.Len
		} else {
			ti := idxs[i]
			total += flow * (ev.matchLat[ti] + ev.actLat[ti])
			flow *= 1 - ev.dropRate[ti]
			i++
		}
	}
	return total
}

// referenceLocalOptimize is the unfused candidate search: every order
// from enumerateOrders × every segmentation from enumerateSegmentations,
// each scored from scratch, then a stable sort by gain and truncation to
// MaxOptionsPerPipelet. It also returns how many candidates it scored.
func referenceLocalOptimize(ev *Evaluator, p *pipelet.Pipelet) ([]*Option, int) {
	if p.SwitchCase || p.Len() == 0 {
		return nil, 0
	}
	orders := [][]string{append([]string(nil), p.Tables...)}
	if ev.cfg.EnableReorder {
		orders = enumerateOrders(ev.an, p.Tables, ev.dropByName, ev.cfg.MaxOrders)
	}
	dense := func(order []string) []int {
		idxs := make([]int, len(order))
		for i, t := range order {
			idxs[i] = ev.idxOf(t)
		}
		return idxs
	}
	baseline := refSeqLatency(ev, p.Tables, dense(p.Tables), nil)
	reach := ev.reachOf(p.Head())
	var options []*Option
	scored := 0
	for oi, order := range orders {
		idxs := dense(order)
		for _, segs := range enumerateSegmentations(order, ev.an, ev.cfg) {
			if oi == 0 && len(segs) == 0 {
				continue // identity
			}
			scored++
			gain := (baseline - refSeqLatency(ev, order, idxs, segs)) * reach
			if gain <= 1e-12 {
				continue
			}
			o := &Option{Kind: OptPipelet, Pipelet: p, Order: order, Segments: segs, Gain: gain}
			for _, s := range segs {
				keyFields := len(ev.an.CacheKey(o.SegTables(s)))
				o.MemCost, o.UpdateCost = ev.segCostAccum(o.MemCost, o.UpdateCost, s.Kind, idxs[s.Start:s.Start+s.Len], keyFields)
			}
			options = append(options, o)
		}
	}
	sort.SliceStable(options, func(i, j int) bool { return options[i].Gain > options[j].Gain })
	if len(options) > ev.cfg.MaxOptionsPerPipelet {
		options = options[:ev.cfg.MaxOptionsPerPipelet]
	}
	return options, scored
}

// sameOptions fails the test unless got and want hold the same options in
// the same order with exactly equal gains and costs.
func sameOptions(t *testing.T, label string, got, want []*Option) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d options, reference %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.String() != w.String() || g.Gain != w.Gain || g.MemCost != w.MemCost || g.UpdateCost != w.UpdateCost {
			t.Fatalf("%s: option %d: %s gain=%v mem=%d upd=%v, reference %s gain=%v mem=%d upd=%v",
				label, i, g, g.Gain, g.MemCost, g.UpdateCost, w, w.Gain, w.MemCost, w.UpdateCost)
		}
	}
}

// Property (the fused-search contract): on the 120-seed corpus, with
// observed hit rates fed back on some spans and non-zero entry-update
// rates, LocalOptimize returns exactly the reference's options — same
// order, option strings, gains, memory and update costs — scores the same
// number of candidates, and ScoreOption reproduces every gain exactly.
// Some seeds cap MaxSegmentations, raise MergeCap or shrink
// MaxOptionsPerPipelet so truncation and the enumeration cap are covered.
func TestLocalOptimizeMatchesReference(t *testing.T) {
	checked := 0
	for i := 0; i < sessionSeeds; i++ {
		pspec, profSpec, pm := sessionCase(i)
		prog := synth.Program(pspec)
		prof := synth.SynthesizeProfile(prog, profSpec)
		cfg := DefaultConfig()
		switch i % 5 {
		case 1:
			cfg.MaxOptionsPerPipelet = 1 + i%23
		case 2:
			cfg.MergeCap = 3
		case 3:
			cfg.MaxSegmentations = 5 + i%11
		}
		part, err := pipelet.Form(prog, cfg.MaxPipeletLen)
		if err != nil {
			t.Fatal(err)
		}
		cfg.HitRateOverride = map[string]float64{}
		for k, p := range part.Pipelets {
			if k%2 == 0 {
				cfg.HitRateOverride[SpanKey(p.Tables[:1])] = 0.2 + 0.1*float64(k%6)
			}
			if p.Len() >= 2 {
				cfg.HitRateOverride[SpanKey(p.Tables[:2])] = 0.95 - 0.05*float64(k%4)
				cfg.HitRateOverride[SpanKey([]string{p.Tables[1], p.Tables[0]})] = 0.5
			}
			for j, tbl := range p.Tables {
				if (j+k+i)%3 != 0 {
					prof.UpdateRates[tbl] = float64(1+(j+i)%5) * 7.5
				}
			}
		}
		ev := NewEvaluator(prog, prof, pm, cfg)
		for _, p := range part.Pipelets {
			label := fmt.Sprintf("seed %d pipelet %s", i, p)
			got, scored := ev.localOptimize(p)
			want, wantScored := referenceLocalOptimize(ev, p)
			sameOptions(t, label, got, want)
			if scored != wantScored {
				t.Fatalf("%s: scored %d candidates, reference %d", label, scored, wantScored)
			}
			for _, o := range got {
				if re := ev.ScoreOption(o); re != o.Gain {
					t.Fatalf("%s: ScoreOption(%s) = %v, search gain %v", label, o, re, o.Gain)
				}
			}
			checked += len(got)
		}
	}
	if checked == 0 {
		t.Fatal("corpus produced no options")
	}
}

// When equal gains straddle the MaxOptionsPerPipelet cut, the kept ones
// are the earliest emitted — what a stable sort followed by truncation
// keeps. Identical, independent, drop-free tables make every permutation
// of a layout score the same, so ties are everywhere.
func TestLocalOptimizeTopKTies(t *testing.T) {
	prog := mustChain(t,
		plainSpec("t1", "f.a", p4ir.MatchTernary),
		plainSpec("t2", "f.b", p4ir.MatchTernary),
		plainSpec("t3", "f.c", p4ir.MatchTernary),
	)
	col := profile.NewCollector()
	for _, tb := range []string{"t1", "t2", "t3"} {
		for i := 0; i < 100; i++ {
			col.RecordAction(tb, "set")
		}
	}
	p := singlePipelet(t, prog)
	straddled := 0
	for k := 1; k <= 40; k++ {
		cfg := DefaultConfig()
		cfg.MaxOptionsPerPipelet = k
		ev := NewEvaluator(prog, col.Snapshot(), costmodel.BlueField2(), cfg)
		got, _ := ev.localOptimize(p)
		want, _ := referenceLocalOptimize(ev, p)
		sameOptions(t, fmt.Sprintf("k=%d", k), got, want)

		cfg.MaxOptionsPerPipelet = math.MaxInt
		all, _ := referenceLocalOptimize(NewEvaluator(prog, col.Snapshot(), costmodel.BlueField2(), cfg), p)
		if k < len(all) && all[k-1].Gain == all[k].Gain {
			straddled++
		}
	}
	if straddled == 0 {
		t.Fatal("no cut fell inside a run of equal gains")
	}
}
