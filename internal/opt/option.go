package opt

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"pipeleon/internal/deps"
	"pipeleon/internal/pipelet"
)

// SegKind distinguishes the two span transformations.
type SegKind int

const (
	// SegCache wraps a span of tables in a runtime-filled flow cache.
	SegCache SegKind = iota
	// SegMerge combines a span of tables into one merged table (or a
	// pre-populated merged-exact cache when the members are exact).
	SegMerge
)

func (k SegKind) String() string {
	if k == SegCache {
		return "cache"
	}
	return "merge"
}

// Segment is a contiguous run of tables, identified by position in the
// option's table order, that one technique is applied to.
type Segment struct {
	Kind  SegKind
	Start int
	Len   int
}

// OptionKind discriminates plain pipelet options from group options.
type OptionKind int

const (
	// OptPipelet transforms a single pipelet.
	OptPipelet OptionKind = iota
	// OptGroupCombo applies one member option per grouped pipelet.
	OptGroupCombo
	// OptGroupCache inserts one cache covering an entire pipelet group,
	// including its branch node (§4.1.1 joint optimization).
	OptGroupCache
	// OptPlacement assigns tables to execution tiers (and replicates
	// some across tiers) on a heterogeneous target. It rewrites only
	// placement annotations, never program structure.
	OptPlacement
)

// Option is one optimization candidate with its estimated benefit and
// resource costs — the unit the knapsack search selects among (§4.2).
type Option struct {
	Kind OptionKind

	// Pipelet/Order/Segments describe an OptPipelet candidate: the tables
	// of Pipelet laid out in Order, with Segments applied to runs of it.
	Pipelet  *pipelet.Pipelet
	Order    []string
	Segments []Segment

	// Group and Members describe group candidates.
	Group   *pipelet.Group
	Members []*Option // OptGroupCombo: chosen option per member (nil = unchanged)

	// Placement describes an OptPlacement candidate.
	Placement *Placement

	// Gain is the expected reduction of whole-program latency in
	// nanoseconds (pipelet gain weighted by reach probability).
	Gain float64
	// MemCost is the extra memory in bytes the option consumes.
	MemCost int
	// UpdateCost is the extra entry-update bandwidth in ops/second.
	UpdateCost float64
}

// SegTables returns the table names a segment covers.
func (o *Option) SegTables(s Segment) []string {
	return o.Order[s.Start : s.Start+s.Len]
}

// String renders a compact human-readable form, e.g.
// "reorder[t3 t1 t2] cache[t3,t1]".
func (o *Option) String() string {
	switch o.Kind {
	case OptPlacement:
		return "placement " + o.Placement.String()
	case OptGroupCache:
		return fmt.Sprintf("group-cache@%s", o.Group.Branch)
	case OptGroupCombo:
		var parts []string
		for _, m := range o.Members {
			if m != nil {
				parts = append(parts, m.String())
			}
		}
		return "group{" + strings.Join(parts, "; ") + "}"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "order%v", o.Order)
	for _, s := range o.Segments {
		fmt.Fprintf(&sb, " %s%v", s.Kind, o.SegTables(s))
	}
	return sb.String()
}

// SpanKey is the canonical identity of a table span, used to key hit-rate
// overrides and generated table names.
func SpanKey(tables []string) string { return strings.Join(tables, "+") }

// enumerateOrders returns the dependency-valid permutations of tables,
// capped at maxOrders. The original order is always first. Beyond the cap
// (or for long pipelets) only the original and the greedy drop-sorted
// orders are returned.
func enumerateOrders(an *deps.Analyzer, tables []string, dropRate map[string]float64, maxOrders int) [][]string {
	n := len(tables)
	orders := [][]string{append([]string(nil), tables...)}
	if n < 2 {
		return orders
	}
	// Factorial guard: enumerate exhaustively only for small pipelets.
	if factorialAtMost(n, maxOrders) {
		seen := map[string]bool{SpanKey(tables): true}
		perm := make([]string, 0, n)
		used := make([]bool, n)
		var rec func()
		rec = func() {
			if len(orders) >= maxOrders {
				return
			}
			if len(perm) == n {
				key := SpanKey(perm)
				if !seen[key] && an.ValidOrder(tables, perm) {
					seen[key] = true
					orders = append(orders, append([]string(nil), perm...))
				}
				return
			}
			for i := 0; i < n; i++ {
				if used[i] {
					continue
				}
				used[i] = true
				perm = append(perm, tables[i])
				rec()
				perm = perm[:len(perm)-1]
				used[i] = false
			}
		}
		rec()
		return orders
	}
	// Heuristic fallback: greedy drop-sorted valid order.
	greedy := GreedyDropOrder(an, tables, dropRate)
	if SpanKey(greedy) != SpanKey(tables) {
		orders = append(orders, greedy)
	}
	return orders
}

func factorialAtMost(n, cap int) bool {
	f := 1
	for i := 2; i <= n; i++ {
		f *= i
		if f > cap {
			return false
		}
	}
	return true
}

// GreedyDropOrder builds a dependency-valid order that promotes tables
// with higher drop rates to earlier positions (§3.2.1: "Pipeleon promotes
// tables with higher dropping rates to earlier parts of the program"):
// repeatedly place the highest-drop table whose original-order
// predecessors with dependencies have all been placed.
func GreedyDropOrder(an *deps.Analyzer, tables []string, dropRate map[string]float64) []string {
	n := len(tables)
	placed := make([]bool, n)
	out := make([]string, 0, n)
	ready := func(i int) bool {
		for j := 0; j < n; j++ {
			if placed[j] || j == i {
				continue
			}
			// j unplaced; if original order has j before i with a
			// dependency j→i, i is not ready.
			if j < i && an.Dependency(tables[j], tables[i]) != deps.DepNone {
				return false
			}
			// Also i must not need to stay before j (dependency i→j is
			// fine — i goes first).
		}
		return true
	}
	for len(out) < n {
		best := -1
		for i := 0; i < n; i++ {
			if placed[i] || !ready(i) {
				continue
			}
			if best == -1 {
				best = i
				continue
			}
			di, db := dropRate[tables[i]], dropRate[tables[best]]
			if di > db+1e-12 {
				best = i
			}
		}
		if best == -1 { // should not happen for a DAG-consistent order
			for i := 0; i < n; i++ {
				if !placed[i] {
					best = i
					break
				}
			}
		}
		placed[best] = true
		out = append(out, tables[best])
	}
	return out
}

// evalScratch is the pooled working state of the fused enumerate-and-score
// loop: the dense index view of every order, the current order's legal
// span lengths and per-element model terms, the segment stack of the recursion, and the
// bounded top-K of candidates kept so far. Pooling it (LocalOptimize runs
// concurrently across units) keeps the per-candidate path allocation-free.
type evalScratch struct {
	n      int
	allIdx []int // dense table indices of every order, n per order
	// maxCache[pos] / maxMerge[pos] are the longest legal cache / merge
	// span lengths starting at pos — the deps checks are monotone over
	// prefixes (the enumeration breaks at the first violation), so one
	// O(n²) precompute per order replaces per-candidate CanCache/CanMerge
	// calls.
	maxCache []int
	maxMerge []int
	// Per-element terms of the current order. A layout's latency folds its
	// elements left to right as total += flow·term, flow *= surv (see
	// seqLatencyIdx); tabTerm/tabSurv[pos] hold the plain table at pos, and
	// cacheTerm/mergeTerm/spanSurv[pos*(n+1)+l] the legal span of length l
	// starting at pos. Computing them once per order leaves each candidate
	// with two multiply-adds per element, shared with every candidate that
	// has the same prefix.
	tabTerm   []float64
	tabSurv   []float64
	cacheTerm []float64
	mergeTerm []float64
	spanSurv  []float64
	// keyLen caches len(an.CacheKey(span)) per (order, start, len),
	// -1 = unset.
	keyLen []int
	// keyBuf assembles HitRateOverride keys without allocating.
	keyBuf []byte

	// State of the segmentation recursion over the current order.
	segs     []Segment
	oi       int // index of the current order; order 0 is the original
	emitted  int // segmentations emitted for the current order
	maxSegs  int
	scored   int // candidates scored across all orders
	baseline float64
	reach    float64
	top      topK
}

var evalScratchPool = sync.Pool{New: func() any { return new(evalScratch) }}

// begin sizes the scratch for a pipelet of n tables searched in numOrders
// orders and empties its key-length cache.
func (sc *evalScratch) begin(n, numOrders int) {
	sc.n = n
	sc.allIdx = resize(sc.allIdx, numOrders*n)
	sc.maxCache = resize(sc.maxCache, n)
	sc.maxMerge = resize(sc.maxMerge, n)
	sc.tabTerm = resize(sc.tabTerm, n)
	sc.tabSurv = resize(sc.tabSurv, n)
	sc.cacheTerm = resize(sc.cacheTerm, n*(n+1))
	sc.mergeTerm = resize(sc.mergeTerm, n*(n+1))
	sc.spanSurv = resize(sc.spanSurv, n*(n+1))
	sc.keyLen = resize(sc.keyLen, numOrders*(n+1)*(n+1))
	for i := range sc.keyLen {
		sc.keyLen[i] = -1
	}
}

// idxOf returns the dense table indices of order oi.
func (sc *evalScratch) idxOf(oi int) []int { return sc.allIdx[oi*sc.n : (oi+1)*sc.n] }

// prepareOrder points the scratch at order oi: it records the order's
// dense indices and computes its legal span lengths and the model term of
// every element the segmentation recursion can place.
func (sc *evalScratch) prepareOrder(ev *Evaluator, oi int, order []string) {
	idx := sc.idxOf(oi)
	for pos, t := range order {
		idx[pos] = ev.nodeIdx[t]
	}
	n := sc.n
	w := n + 1
	mergeMax := ev.cfg.MergeCap
	if mergeMax < 2 {
		mergeMax = 2
	}
	for pos := 0; pos < n; pos++ {
		ti := idx[pos]
		sc.tabTerm[pos] = ev.matchLat[ti] + ev.actLat[ti]
		sc.tabSurv[pos] = 1 - ev.dropRate[ti]
		mc := 0
		if ev.cfg.EnableCache {
			for l := 1; pos+l <= n; l++ {
				if !ev.an.CanCache(order[pos : pos+l]) {
					break // a longer span contains the same violation
				}
				mc = l
			}
		}
		sc.maxCache[pos] = mc
		mm := 0
		if ev.cfg.EnableMerge {
			for l := 2; l <= mergeMax && pos+l <= n; l++ {
				if !ev.an.CanMerge(order[pos : pos+l]) {
					break
				}
				mm = l
			}
		}
		sc.maxMerge[pos] = mm
		for l := 1; l <= max(mc, mm); l++ {
			names, span := order[pos:pos+l], idx[pos:pos+l]
			origCost, actSum, dropP := ev.spanStatsIdx(span)
			slot := pos*w + l
			sc.spanSurv[slot] = 1 - dropP
			if l <= mc {
				sc.cacheTerm[slot], sc.keyBuf = ev.segTerm(SegCache, names, span, origCost, actSum, sc.keyBuf)
			}
			if l >= 2 && l <= mm {
				sc.mergeTerm[slot], sc.keyBuf = ev.segTerm(SegMerge, names, span, origCost, actSum, sc.keyBuf)
			}
		}
	}
}

// resize returns s with length n, reallocating only when it must grow.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// keyLenFor returns len(an.CacheKey(order[start:start+l])) for order oi,
// computing it at most once per (order, start, l).
func (sc *evalScratch) keyLenFor(ev *Evaluator, oi int, order []string, start, l int) int {
	w := sc.n + 1
	slot := &sc.keyLen[(oi*w+start)*w+l]
	if *slot < 0 {
		*slot = len(ev.an.CacheKey(order[start : start+l]))
	}
	return *slot
}

// segment enumerates the segmentations of the current order from pos on,
// in the emission order and under the MaxSegmentations cap of
// enumerateSegmentations: (a) leave the table at pos untouched, (b) cache
// a span starting at pos, (c) merge a span starting at pos. total and flow
// are the latency and surviving traffic of the layout's prefix, folded
// with exactly the float operations seqLatencyIdx performs, so each leaf's
// total is bit-identical to scoring the whole candidate from scratch.
func (sc *evalScratch) segment(pos int, total, flow float64) {
	if sc.emitted >= sc.maxSegs {
		return
	}
	if pos == sc.n {
		sc.emitted++
		if sc.oi == 0 && len(sc.segs) == 0 {
			return // identity
		}
		sc.scored++
		if gain := (sc.baseline - total) * sc.reach; gain > 1e-12 {
			sc.top.offer(gain, sc.oi, sc.segs)
		}
		return
	}
	sc.segment(pos+1, total+flow*sc.tabTerm[pos], flow*sc.tabSurv[pos])
	w := sc.n + 1
	for l := 1; l <= sc.maxCache[pos]; l++ {
		slot := pos*w + l
		sc.segs = append(sc.segs, Segment{Kind: SegCache, Start: pos, Len: l})
		sc.segment(pos+l, total+flow*sc.cacheTerm[slot], flow*sc.spanSurv[slot])
		sc.segs = sc.segs[:len(sc.segs)-1]
	}
	for l := 2; l <= sc.maxMerge[pos]; l++ {
		slot := pos*w + l
		sc.segs = append(sc.segs, Segment{Kind: SegMerge, Start: pos, Len: l})
		sc.segment(pos+l, total+flow*sc.mergeTerm[slot], flow*sc.spanSurv[slot])
		sc.segs = sc.segs[:len(sc.segs)-1]
	}
}

// topEntry is one candidate held by topK.
type topEntry struct {
	gain float64
	seq  int // emission order across the whole pipelet
	oi   int // index of the candidate's order
	off  int // the candidate's segments are arena[off : off+nseg]
	nseg int
}

// topK keeps the k best candidates seen so far — highest gain first, ties
// to the earlier emission — which is exactly what a stable sort by gain
// followed by truncation to k keeps. It is a min-heap whose root is the
// worst kept candidate; each entry owns a fixed arena slot wide enough for
// any segmentation of the pipelet, reused when a better candidate evicts
// it.
type topK struct {
	k, width int
	seq      int
	heap     []topEntry
	arena    []Segment
}

func (t *topK) reset(k, width int) {
	t.k, t.width, t.seq = k, width, 0
	t.heap = t.heap[:0]
}

func (t *topK) segsOf(e *topEntry) []Segment { return t.arena[e.off : e.off+e.nseg] }

// worse reports whether a ranks below b.
func worse(a, b *topEntry) bool {
	return a.gain < b.gain || (a.gain == b.gain && a.seq > b.seq)
}

// offer considers one candidate. Every offer comes later in emission order
// than the kept ones, so when the heap is full a candidate enters only by
// strictly beating the worst kept gain: O(1) for the common loser.
func (t *topK) offer(gain float64, oi int, segs []Segment) {
	seq := t.seq
	t.seq++
	if len(t.heap) < t.k {
		off := len(t.heap) * t.width
		if need := off + t.width; len(t.arena) < need {
			t.arena = slices.Grow(t.arena, need-len(t.arena))[:need]
		}
		copy(t.arena[off:], segs)
		t.heap = append(t.heap, topEntry{})
		t.up(len(t.heap)-1, topEntry{gain: gain, seq: seq, oi: oi, off: off, nseg: len(segs)})
		return
	}
	if len(t.heap) == 0 || gain <= t.heap[0].gain {
		return
	}
	off := t.heap[0].off
	copy(t.arena[off:], segs)
	t.down(0, topEntry{gain: gain, seq: seq, oi: oi, off: off, nseg: len(segs)})
}

// up places x at the free slot i and restores the heap order above it,
// moving each displaced parent once instead of swapping.
func (t *topK) up(i int, x topEntry) {
	h := t.heap
	for i > 0 {
		p := (i - 1) / 2
		if !worse(&x, &h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
}

// down places x at the free slot i and restores the heap order below it.
func (t *topK) down(i int, x topEntry) {
	h := t.heap
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && worse(&h[r], &h[c]) {
			c = r
		}
		if !worse(&h[c], &x) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
}

// drain heap-sorts the kept candidates in place, best first, and returns
// them.
func (t *topK) drain() []topEntry {
	h := t.heap
	for end := len(h) - 1; end > 0; end-- {
		x := h[end]
		h[end] = h[0] // the worst remaining candidate
		t.heap = h[:end]
		t.down(0, x)
	}
	t.heap = h
	return h
}

// LocalOptimize enumerates and scores all candidates for one pipelet
// (Figure 16, LocalOptimize). The returned options are sorted by gain
// descending, truncated to cfg.MaxOptionsPerPipelet, and exclude
// candidates with non-positive gain (the implicit "do nothing" option is
// always available to the global search).
func (ev *Evaluator) LocalOptimize(p *pipelet.Pipelet) []*Option {
	opts, _ := ev.localOptimize(p)
	return opts
}

// localOptimize is LocalOptimize that also reports how many candidates it
// scored. Enumeration and scoring are fused: for every order the
// segmentation recursion walks the candidates in the emission order of
// enumerating first and scoring after, scores each leaf from its shared
// prefix and the order's precomputed element terms, and offers it to a
// bounded top-K. Options, with their memory and update costs, are built
// only for the survivors. The result is identical, bit for bit, to
// scoring every candidate with seqLatencyIdx, stable-sorting by gain and
// truncating.
func (ev *Evaluator) localOptimize(p *pipelet.Pipelet) ([]*Option, int) {
	if p.SwitchCase || p.Len() == 0 {
		return nil, 0
	}
	tables := p.Tables
	var orders [][]string
	if ev.cfg.EnableReorder {
		orders = enumerateOrders(ev.an, tables, ev.dropByName, ev.cfg.MaxOrders)
	} else {
		orders = [][]string{append([]string(nil), tables...)}
	}
	sc := evalScratchPool.Get().(*evalScratch)
	defer evalScratchPool.Put(sc)
	sc.maxSegs = ev.cfg.MaxSegmentations
	if sc.maxSegs <= 0 {
		sc.maxSegs = 20000
	}
	sc.scored = 0
	sc.reach = ev.reachOf(p.Head())
	sc.top.reset(ev.cfg.MaxOptionsPerPipelet, len(tables))
	sc.begin(len(tables), len(orders))
	for oi, order := range orders {
		sc.prepareOrder(ev, oi, order)
		if oi == 0 { // orders[0] is the original layout
			sc.baseline = ev.seqLatencyIdx(order, sc.idxOf(0), nil)
		}
		sc.oi, sc.emitted = oi, 0
		sc.segs = sc.segs[:0]
		sc.segment(0, 0, 1)
	}
	return ev.materialize(sc, p, orders), sc.scored
}

// materialize builds the Options of the kept candidates, gain descending
// with ties in emission order.
func (ev *Evaluator) materialize(sc *evalScratch, p *pipelet.Pipelet, orders [][]string) []*Option {
	kept := sc.top.drain()
	if len(kept) == 0 {
		return nil
	}
	nseg := 0
	for i := range kept {
		nseg += kept[i].nseg
	}
	opts := make([]Option, len(kept))
	segs := make([]Segment, 0, nseg)
	out := make([]*Option, len(kept))
	for i := range kept {
		e := &kept[i]
		o := &opts[i]
		*o = Option{Kind: OptPipelet, Pipelet: p, Order: orders[e.oi], Gain: e.gain}
		if e.nseg > 0 {
			start := len(segs)
			segs = append(segs, sc.top.segsOf(e)...)
			o.Segments = segs[start:len(segs):len(segs)]
		}
		o.MemCost, o.UpdateCost = ev.segCostsIdx(sc, e.oi, o.Order, o.Segments)
		out[i] = o
	}
	return out
}
