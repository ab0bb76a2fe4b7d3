package opt

import (
	"sort"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/deps"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/pipelet"
	"pipeleon/internal/profile"
)

// Evaluator scores candidate transformations with the cost model under the
// current runtime profile. Per-table quantities live in dense slices over
// a stable node ordering (sorted tables, then sorted conds) so the hot
// candidate loop runs map-free, and refresh swaps in a new profile without
// rebuilding the static program-derived quantities — which is what lets a
// warm Session reuse one Evaluator across rounds.
type Evaluator struct {
	prog *p4ir.Program
	prof *profile.Profile
	pm   costmodel.Params
	cfg  Config
	an   *deps.Analyzer

	// Stable dense node ordering: tables first (sorted), then conds
	// (sorted). Table-only quantities are zero at cond slots.
	nodeIdx   map[string]int
	nodeNames []string
	numTables int

	// Static quantities (program + cost model, fixed for the Evaluator's
	// lifetime).
	// matchLat / actLat split each table's latency into the key-match part
	// (m·Lmat) and the expected action part (Σ P(a)·n_a·Lact).
	matchLat []float64
	entries  []int
	exact    []bool
	mcomp    []int
	memBytes []int

	// Profile-dependent quantities, recomputed in place by refresh.
	reach    []float64
	dropRate []float64
	actLat   []float64
	card     []uint64
	updRate  []float64

	// dropByName mirrors dropRate under table names for the exported
	// order-enumeration API (GreedyDropOrder takes a name-keyed map).
	dropByName map[string]float64
}

// NewEvaluator precomputes per-table model quantities.
func NewEvaluator(prog *p4ir.Program, prof *profile.Profile, pm costmodel.Params, cfg Config) *Evaluator {
	return newEvaluator(prog, prof, pm, cfg, deps.NewAnalyzer(prog))
}

// newEvaluator is NewEvaluator with an injected dependency analyzer, so
// many evaluators over one program (a sweep's points) share the analysis.
// The analyzer is eager and read-only after construction, hence safe to
// share across goroutines.
func newEvaluator(prog *p4ir.Program, prof *profile.Profile, pm costmodel.Params, cfg Config, an *deps.Analyzer) *Evaluator {
	ev := &Evaluator{prog: prog, pm: pm, cfg: cfg, an: an}
	tnames := make([]string, 0, len(prog.Tables))
	for name := range prog.Tables {
		tnames = append(tnames, name)
	}
	sort.Strings(tnames)
	cnames := make([]string, 0, len(prog.Conds))
	for name := range prog.Conds {
		cnames = append(cnames, name)
	}
	sort.Strings(cnames)
	n := len(tnames) + len(cnames)
	ev.numTables = len(tnames)
	ev.nodeNames = append(append(make([]string, 0, n), tnames...), cnames...)
	ev.nodeIdx = make(map[string]int, n)
	for i, name := range ev.nodeNames {
		ev.nodeIdx[name] = i
	}
	ev.matchLat = make([]float64, n)
	ev.entries = make([]int, n)
	ev.exact = make([]bool, n)
	ev.mcomp = make([]int, n)
	ev.memBytes = make([]int, n)
	for i, name := range tnames {
		t := prog.Tables[name]
		ev.matchLat[i] = float64(pm.MatchComplexity(t)) * pm.Lmat
		ev.entries[i] = len(t.Entries)
		ev.exact[i] = t.WidestMatchKind() == p4ir.MatchExact
		ev.mcomp[i] = pm.MatchComplexity(t)
		ev.memBytes[i] = t.MemoryBytes()
	}
	ev.reach = make([]float64, n)
	ev.dropRate = make([]float64, n)
	ev.actLat = make([]float64, n)
	ev.card = make([]uint64, n)
	ev.updRate = make([]float64, n)
	ev.dropByName = make(map[string]float64, len(tnames))
	ev.refresh(prof)
	return ev
}

// refresh recomputes the profile-dependent quantities in place, reusing
// the dense backing arrays. A warm session's per-round evaluator cost is
// therefore the per-table model math, not allocation.
func (ev *Evaluator) refresh(prof *profile.Profile) {
	ev.prof = prof
	for i := range ev.reach {
		ev.reach[i] = 0
	}
	for name, v := range prof.ReachProbs(ev.prog) {
		if i, ok := ev.nodeIdx[name]; ok {
			ev.reach[i] = v
		}
	}
	for i := 0; i < ev.numTables; i++ {
		name := ev.nodeNames[i]
		t := ev.prog.Tables[name]
		drop := prof.DropProb(t)
		ev.dropRate[i] = drop
		ev.dropByName[name] = drop
		probs := prof.ActionProb(t)
		var act float64
		for _, a := range t.Actions {
			act += probs[a.Name] * float64(a.NumPrimitives()) * ev.pm.Lact
		}
		ev.actLat[i] = act
		ev.card[i] = prof.Cardinality(name, ev.cfg.DefaultCardinality)
		ev.updRate[i] = prof.UpdateRate(name)
	}
}

// Analyzer exposes the dependency analyzer (shared with rewriting).
func (ev *Evaluator) Analyzer() *deps.Analyzer { return ev.an }

// idxOf returns a node's dense index, or -1 for unknown names.
func (ev *Evaluator) idxOf(name string) int {
	if i, ok := ev.nodeIdx[name]; ok {
		return i
	}
	return -1
}

func (ev *Evaluator) reachOf(name string) float64 {
	if i := ev.idxOf(name); i >= 0 {
		return ev.reach[i]
	}
	return 0
}

func (ev *Evaluator) matchLatOf(name string) float64 {
	if i := ev.idxOf(name); i >= 0 {
		return ev.matchLat[i]
	}
	return 0
}

func (ev *Evaluator) actLatOf(name string) float64 {
	if i := ev.idxOf(name); i >= 0 {
		return ev.actLat[i]
	}
	return 0
}

// elemKind labels one element of a transformed pipelet layout.
type elemKind int

const (
	elemTable elemKind = iota
	elemCache
	elemMerge
)

type seqElem struct {
	kind   elemKind
	tables []string
}

// buildSequence lays out the pipelet as a sequence of plain tables and
// segment elements, in order.
func buildSequence(order []string, segs []Segment) []seqElem {
	covered := map[int]int{} // position -> segment index
	for si, s := range segs {
		for i := s.Start; i < s.Start+s.Len; i++ {
			covered[i] = si
		}
	}
	var out []seqElem
	for i := 0; i < len(order); {
		if si, ok := covered[i]; ok {
			s := segs[si]
			kind := elemCache
			if s.Kind == SegMerge {
				kind = elemMerge
			}
			out = append(out, seqElem{kind: kind, tables: order[s.Start : s.Start+s.Len]})
			i += s.Len
		} else {
			out = append(out, seqElem{kind: elemTable, tables: order[i : i+1]})
			i++
		}
	}
	return out
}

// spanStatsIdx aggregates the model quantities of a table span: the
// original per-entering-packet cost, the expected combined action cost,
// and the span's aggregate drop probability. Within the span, traffic
// surviving table i proceeds to table i+1.
func (ev *Evaluator) spanStatsIdx(span []int) (origCost, actSum, dropProb float64) {
	flow := 1.0
	for _, ti := range span {
		origCost += flow * (ev.matchLat[ti] + ev.actLat[ti])
		actSum += flow * ev.actLat[ti]
		flow *= 1 - ev.dropRate[ti]
	}
	return origCost, actSum, 1 - flow
}

// workingSet is the cross-product cardinality of a span's cache key
// (§3.2.2: "n header fields could produce up to S1·S2·...·Sn cache
// entries"), saturating to avoid overflow. Because every cache key is a
// function of the packet's flow, the working set is additionally bounded
// by the observed flow cardinality — a handful of long-lived flows keeps
// even a whole-program cache hot regardless of the field cross-product.
func (ev *Evaluator) workingSetIdx(span []int) uint64 {
	const sat = 1 << 40
	ws := uint64(1)
	for _, ti := range span {
		c := ev.card[ti]
		if c == 0 {
			c = 1
		}
		if ws > sat/c {
			ws = sat
			break
		}
		ws *= c
	}
	if fc := ev.prof.FlowCardinality; fc > 0 && fc < ws {
		ws = fc
	}
	return ws
}

// allExactIdx reports whether every table in the span matches exactly.
func (ev *Evaluator) allExactIdx(span []int) bool {
	for _, ti := range span {
		if !ev.exact[ti] {
			return false
		}
	}
	return true
}

// mergedMIdx is the match complexity of an in-place (non-cache) merge:
// each combination of member masks is a distinct mask of the merged table,
// so m multiplies (capped). Merging ternary tables therefore usually loses
// — exactly the hazard Figure 6 illustrates — and such candidates fall out
// of the search on gain.
func (ev *Evaluator) mergedMIdx(span []int) int {
	const cap = 64
	m := 1
	for _, ti := range span {
		m *= ev.mcomp[ti]
		if m > cap {
			return cap
		}
	}
	return m
}

// spanOverride looks up the span's HitRateOverride entry. The runtime
// writes observed hit rates there every round, so the lookup is on the
// live path; the SpanKey is assembled in kb (grown as needed and returned
// for reuse), and indexing the map with string(kb) allocates nothing.
func (ev *Evaluator) spanOverride(names []string, kb []byte) (float64, bool, []byte) {
	if len(ev.cfg.HitRateOverride) == 0 {
		return 0, false, kb
	}
	kb = kb[:0]
	for i, t := range names {
		if i > 0 {
			kb = append(kb, '+')
		}
		kb = append(kb, t...)
	}
	h, ok := ev.cfg.HitRateOverride[string(kb)]
	return h, ok, kb
}

// hitEstimateIdx resolves the estimated hit rate of a cache over a span:
// the observed rate when the runtime has fed one back for this span, the
// working-set model otherwise. The candidate search calls it once per
// legal cache span per order, not once per candidate.
func (ev *Evaluator) hitEstimateIdx(names []string, span []int, kb []byte) (float64, []byte) {
	h, ok, kb := ev.spanOverride(names, kb)
	if !ok {
		h = ev.cfg.hitEstimate(ev.workingSetIdx(span))
	}
	return h, kb
}

// invalidationDiscount applies the §3.2.2 cache-invalidation penalty:
// entry updates in any covered table invalidate the whole cache, so the
// hit estimate is discounted by the aggregate update rate.
func (ev *Evaluator) invalidationDiscount(h float64, span []int) float64 {
	if ev.cfg.InvalidationPenalty > 0 {
		var upd float64
		for _, ti := range span {
			upd += ev.updRate[ti]
		}
		h /= 1 + upd*ev.cfg.InvalidationPenalty
	}
	return h
}

// segTerm returns the expected cost a cache or merge element over span
// adds per packet entering it, given the span's spanStatsIdx aggregates.
// kb is spanOverride's key buffer.
func (ev *Evaluator) segTerm(kind SegKind, names []string, span []int, origCost, actSum float64, kb []byte) (float64, []byte) {
	if kind == SegCache {
		// One exact probe always; on a hit the combined action applies;
		// on a miss the packet falls through to the original tables.
		h, kb := ev.hitEstimateIdx(names, span, kb)
		h = ev.invalidationDiscount(h, span)
		return ev.pm.Lmat + h*actSum + (1-h)*origCost, kb
	}
	if ev.allExactIdx(span) {
		// Merged-exact cache with fallback (§3.2.3: "Pipeleon addresses
		// this by generating a merged exact table without ternary
		// entries as a cache").
		h, ok, kb := ev.spanOverride(names, kb)
		if !ok {
			h = ev.cfg.MergedCacheHitRate
		}
		return ev.pm.Lmat + h*actSum + (1-h)*origCost, kb
	}
	// In-place merge: one (multi-probe) match executes all member actions.
	m := ev.mergedMIdx(span)
	return float64(m)*ev.pm.Lmat + actSum, kb
}

// seqLatencyIdx returns the expected per-packet latency of a pipelet
// layout for one packet entering the pipelet: the tables of order (idxs
// are their dense indices) with the position-sorted, disjoint segments
// applied. Elements fold left to right as total += flow·term,
// flow *= survival; the candidate search performs exactly these
// operations on shared prefixes, so its gains and ScoreOption's agree bit
// for bit.
func (ev *Evaluator) seqLatencyIdx(order []string, idxs []int, segs []Segment) float64 {
	flow := 1.0
	var total float64
	var kb []byte
	si := 0
	for i := 0; i < len(idxs); {
		if si < len(segs) && segs[si].Start == i {
			s := segs[si]
			si++
			span := idxs[i : i+s.Len]
			origCost, actSum, dropP := ev.spanStatsIdx(span)
			var term float64
			term, kb = ev.segTerm(s.Kind, order[i:i+s.Len], span, origCost, actSum, kb)
			total += flow * term
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

// layoutLatency is seqLatencyIdx over table names, for callers outside
// the candidate loop. ok is false when the layout names a table the
// evaluator's program lacks.
func (ev *Evaluator) layoutLatency(order []string, segs []Segment) (lat float64, ok bool) {
	idxs := make([]int, len(order))
	for i, t := range order {
		if idxs[i] = ev.idxOf(t); idxs[i] < 0 || idxs[i] >= ev.numTables {
			return 0, false
		}
	}
	return ev.seqLatencyIdx(order, idxs, segs), true
}

// segCostsIdx returns the memory and entry-update costs of a candidate's
// segments over order oi of the scratch's pipelet; span key-field counts
// come from the scratch's cache instead of recomputing an.CacheKey per
// candidate.
func (ev *Evaluator) segCostsIdx(sc *evalScratch, oi int, order []string, segs []Segment) (mem int, upd float64) {
	idxs := sc.idxOf(oi)
	for _, s := range segs {
		kl := sc.keyLenFor(ev, oi, order, s.Start, s.Len)
		mem, upd = ev.segCostAccum(mem, upd, s.Kind, idxs[s.Start:s.Start+s.Len], kl)
	}
	return mem, upd
}

// segCostAccum folds one segment's memory and update costs into (mem,
// upd).
func (ev *Evaluator) segCostAccum(mem int, upd float64, kind SegKind, span []int, keyFields int) (int, float64) {
	entryBytes := keyFields*8 + 16
	switch kind {
	case SegCache:
		mem += ev.cfg.CacheBudgetEntries * entryBytes
		// A cache consumes entry-insertion bandwidth on misses;
		// Pipeleon reserves its configured rate limit.
		upd += ev.cfg.CacheInsertLimit
	case SegMerge:
		// N(T_AB) = Π N(T_i) (§3.2.3 optimization considerations).
		prod := 1
		for _, ti := range span {
			n := ev.entries[ti]
			if n < 1 {
				n = 1
			}
			if prod > (1<<30)/n {
				prod = 1 << 30
				break
			}
			prod *= n
		}
		if ev.allExactIdx(span) {
			mem += prod * entryBytes
		} else {
			m := ev.mergedMIdx(span)
			merged := prod * entryBytes * m
			var orig int
			for _, ti := range span {
				orig += ev.memBytes[ti]
			}
			delta := merged - orig
			if delta > 0 {
				mem += delta
			}
		}
		// I(T_AB) = Σ_i I(T_i) · Π_{j≠i} N(T_j).
		for i, ti := range span {
			rate := ev.updRate[ti]
			if rate == 0 {
				continue
			}
			mult := 1.0
			for j, tj := range span {
				if j == i {
					continue
				}
				n := ev.entries[tj]
				if n < 1 {
					n = 1
				}
				mult *= float64(n)
			}
			upd += rate * mult
		}
	}
	return mem, upd
}

// Reach returns P(reach node) under the evaluator's profile.
func (ev *Evaluator) Reach(node string) float64 { return ev.reachOf(node) }

// GroupOptions builds the candidates of a pipelet group (§4.1.1): the
// cross product of member options (joint application) plus a group-wide
// cache spanning the branch and every member, when legal.
func (ev *Evaluator) GroupOptions(g *pipelet.Group, memberOpts [][]*Option) []*Option {
	var out []*Option
	// Cross product of member choices (nil = leave member unchanged),
	// capped; at least one member must change. Member options arrive
	// sorted by gain descending and nil goes LAST, so when the cap
	// truncates the product, the best-of-each combination is the first
	// one enumerated and always survives.
	combos := [][]*Option{{}}
	for _, opts := range memberOpts {
		var next [][]*Option
		choices := append(append([]*Option{}, opts...), nil)
		for _, c := range combos {
			for _, ch := range choices {
				if len(next) >= ev.cfg.MaxGroupCombos {
					break
				}
				nc := append(append([]*Option(nil), c...), ch)
				next = append(next, nc)
			}
		}
		combos = next
	}
	for _, c := range combos {
		var gain float64
		var memC int
		var updC float64
		changed := false
		for _, ch := range c {
			if ch == nil {
				continue
			}
			changed = true
			gain += ch.Gain
			memC += ch.MemCost
			updC += ch.UpdateCost
		}
		if !changed {
			continue
		}
		out = append(out, &Option{
			Kind: OptGroupCombo, Group: g, Members: c,
			Gain: gain, MemCost: memC, UpdateCost: updC,
		})
	}
	// Group-wide cache: legal when every member span is cacheable and the
	// entry branch is a conditional (a switch-case branch's per-action
	// jump cannot be reproduced by a single cached verdict).
	if ev.cfg.EnableCache {
		legal := true
		for _, bn := range g.Branches {
			if _, cond := ev.prog.Node(bn); cond == nil {
				legal = false
				break
			}
		}
		for _, m := range g.Members {
			if !ev.an.CanCache(m.Tables) {
				legal = false
				break
			}
		}
		if legal {
			o := ev.groupCacheOption(g, ev.groupBranchFields(g))
			if o != nil && o.Gain > 1e-12 {
				out = append(out, o)
			}
		}
	}
	return out
}

// groupBranchFields collects the read fields of every internal branch —
// they join the group cache's key so the cached verdict reproduces the
// control flow.
func (ev *Evaluator) groupBranchFields(g *pipelet.Group) []string {
	seen := map[string]bool{}
	var out []string
	for _, bn := range g.Branches {
		if cond, ok := ev.prog.Conds[bn]; ok {
			for _, f := range cond.ReadFields {
				if !seen[f] {
					seen[f] = true
					out = append(out, f)
				}
			}
		}
	}
	return out
}

// groupCacheOption scores a cache covering the whole group: a hit replaces
// the group's entire reach-weighted cost (branches included) with one
// probe plus the combined action writes. Works for single diamonds and
// chained multi-diamond groups alike.
func (ev *Evaluator) groupCacheOption(g *pipelet.Group, branchFields []string) *Option {
	entryReach := ev.reachOf(g.Branch)
	if entryReach <= 0 {
		return nil
	}
	// Conditional (per-entering-packet) expected cost of the group: the
	// reach-weighted node costs of members and internal branches,
	// normalized by the entry reach.
	var weighted, weightedAct float64
	for _, m := range g.Members {
		for _, t := range m.Tables {
			weighted += ev.reachOf(t) * (ev.matchLatOf(t) + ev.actLatOf(t))
			weightedAct += ev.reachOf(t) * ev.actLatOf(t)
		}
	}
	for _, bn := range g.Branches {
		weighted += ev.reachOf(bn) * ev.pm.CondLatency()
	}
	baseline := weighted / entryReach
	actSum := weightedAct / entryReach

	allTables := g.Tables()
	span := make([]int, len(allTables))
	for i, t := range allTables {
		span[i] = ev.idxOf(t)
	}
	h, _ := ev.hitEstimateIdx(allTables, span, nil)
	h = ev.invalidationDiscount(h, span)
	cached := ev.pm.Lmat + h*actSum + (1-h)*baseline
	gain := (baseline - cached) * entryReach
	keyFields := ev.an.CacheKey(allTables)
	entryBytes := (len(keyFields)+len(branchFields))*8 + 16
	return &Option{
		Kind: OptGroupCache, Group: g,
		Gain:       gain,
		MemCost:    ev.cfg.CacheBudgetEntries * entryBytes,
		UpdateCost: ev.cfg.CacheInsertLimit,
	}
}
