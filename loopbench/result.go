package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sync"
	"time"

	"pipeleon/internal/core"
	"pipeleon/internal/fleet"
	"pipeleon/internal/nicsim"
)

// loopStats accumulates one run's raw observations; endToEnd,
// sideMetrics and perLayer turn them into the reported numbers.
type loopStats struct {
	seconds    float64 // how long the loop ran
	setupS     []float64
	setupLayer map[string][]float64 // ms

	pkts    int64
	busy    time.Duration // datapath + rounds: the loop minus traffic generation and the oracle
	genTime time.Duration
	measure time.Duration

	winPkts, winMean, winP99 []float64
	counterUpdates           float64 // summed over packets
	roundMs                  []float64
	// outcomes describes every round's decision and gains its predicted
	// gain, for comparing runs.
	outcomes           []string
	gains              []float64
	searchMs           []float64
	rounds, searched   int
	deploys, rollbacks int

	rpcLatUs, rpcLagUs []float64

	// heapPeak is the largest live heap (bytes a GC marked live) seen at
	// any window or round boundary; the heap in use between collections
	// swings with GC timing and is not repeatable.
	heapPeak uint64

	attempted, failed int
	oracles           []*oracle

	// traced run only
	allocs                      []float64
	cacheHits, cacheLookups     uint64
	cacheInvalidations          uint64
	deviceRollbacks, devResults int
	runtime                     *core.RuntimeStatus
	fleet                       *fleet.Status

	mu     sync.Mutex
	errors []string // correctness violations
	notes  []string
}

func (st *loopStats) fail(format string, args ...any) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.errors = append(st.errors, fmt.Sprintf(format, args...))
}

func (st *loopStats) note(format string, args ...any) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.notes = append(st.notes, fmt.Sprintf(format, args...))
}

func (st *loopStats) noteSetup(total time.Duration, layers map[string]time.Duration) {
	st.setupS = append(st.setupS, total.Seconds())
	if st.setupLayer == nil {
		st.setupLayer = map[string][]float64{}
	}
	for k, v := range layers {
		st.setupLayer[k] = append(st.setupLayer[k], float64(v)/1e6)
	}
}

// noteWindow records one window (one measurement per device) and the
// round or rollout that followed it.
func (st *loopStats) noteWindow(ms []nicsim.Measurement, gen, measure, round time.Duration) {
	for _, m := range ms {
		st.pkts += int64(m.Packets)
		st.winPkts = append(st.winPkts, float64(m.Packets))
		st.winMean = append(st.winMean, m.MeanLatencyNs)
		st.winP99 = append(st.winP99, m.P99LatencyNs)
		st.counterUpdates += m.MeanCounterUpdates * float64(m.Packets)
	}
	st.genTime += gen
	st.measure += measure
	st.busy += measure + round
	st.roundMs = append(st.roundMs, float64(round)/1e6)
}

func (st *loopStats) noteRound(rep core.RoundReport, err error) {
	st.outcomes = append(st.outcomes, fmt.Sprintf("round %d deployed=%v rolledback=%v breaker=%v blacklisted=%v unchanged=%v err=%q/%q plan=%v",
		rep.Round, rep.Deployed, rep.RolledBack, rep.BreakerOpen, rep.PlanBlacklisted, rep.SkippedUnchanged,
		rep.Error, rep.DeployError, rep.Plan))
	st.gains = append(st.gains, rep.Gain)
	st.rounds++
	st.attempted++
	if err != nil || rep.Error != "" || rep.DeployError != "" {
		st.failed++
	}
	st.noteSearch(rep.SearchTime)
	if rep.Deployed {
		st.deploys++
	}
	if rep.RolledBack {
		st.rollbacks++
	}
}

// noteRollout counts one OptimizeAndRollout call and every device
// result in it. A device the verify window rolled back is the guard
// working, as a rolled-back round is; any other device error fails.
func (st *loopStats) noteRollout(reps []*fleet.RolloutReport, err error) {
	st.rounds++
	st.attempted++
	if err != nil {
		st.failed++
	}
	for _, rep := range reps {
		st.outcomes = append(st.outcomes, fmt.Sprintf("rollout %s halted=%v committed=%v", rep.Fingerprint, rep.Halted, rep.Committed))
		for _, r := range rep.Results {
			st.devResults++
			st.attempted++
			if r.Converged {
				continue
			}
			st.deploys++
			if r.RolledBack || r.FleetRolledBack {
				st.rollbacks++
				st.deviceRollbacks++
			} else if r.Err != "" {
				st.failed++
			}
		}
	}
}

// noteSearch records one round's optimizer search time (0: no search).
func (st *loopStats) noteSearch(d time.Duration) {
	if d > 0 {
		st.searched++
		st.searchMs = append(st.searchMs, float64(d)/1e6)
	}
}

func (st *loopStats) noteLoad(l *openLoop) {
	st.rpcLatUs, st.rpcLagUs = l.latUs, l.lagUs
	st.attempted += l.sent
	st.failed += l.fails
}

func (st *loopStats) noteAllocs(n uint64) { st.allocs = append(st.allocs, float64(n)) }

// noteCaches adds one window's runtime-cache counter deltas: hits and
// lookups from before to after the window (a round swaps programs
// between windows, never during one, so both describe the same caches),
// and invalidations from the previous window's after snapshot, so the
// entry operations that land during a round or the oracle count too. A
// cache missing from a snapshot, or whose counter dropped, was built by
// a swap since and counts from zero.
func (st *loopStats) noteCaches(prevAfter, before, after []nicsim.CacheStats) {
	index := func(cs []nicsim.CacheStats) map[string]nicsim.CacheStats {
		m := map[string]nicsim.CacheStats{}
		for _, c := range cs {
			m[c.Table] = c
		}
		return m
	}
	start, last := index(before), index(prevAfter)
	for _, c := range after {
		p := start[c.Table]
		if c.Hits < p.Hits || c.Misses < p.Misses {
			p = nicsim.CacheStats{}
		}
		st.cacheHits += c.Hits - p.Hits
		st.cacheLookups += c.Hits - p.Hits + c.Misses - p.Misses
		q := last[c.Table] // zero for a cache created since
		if c.Invalidations < q.Invalidations {
			q = nicsim.CacheStats{}
		}
		st.cacheInvalidations += c.Invalidations - q.Invalidations
	}
}

var heapSample = []metrics.Sample{
	{Name: "/gc/heap/live:bytes"},
	{Name: "/gc/heap/allocs:objects"},
}

func (st *loopStats) sampleHeap() {
	metrics.Read(heapSample[:1])
	if v := heapSample[0].Value.Uint64(); v > st.heapPeak {
		st.heapPeak = v
	}
}

// heapAllocs is the cumulative count of heap objects allocated.
func heapAllocs() uint64 {
	metrics.Read(heapSample[1:])
	return heapSample[1].Value.Uint64()
}

func (st *loopStats) mismatches() (compared, mismatched int, first string) {
	for _, o := range st.oracles {
		compared += o.compared
		mismatched += o.mismatched
		if first == "" {
			first = o.firstDiff
		}
	}
	return
}

// metric is one reported number.
type metric struct {
	Name    string
	Value   float64
	Unit    string
	Samples int
}

// rpcLatencies returns the control-plane latencies. A failed request
// counts as infinitely late; it is reported as late as the whole run so
// the figure stays a number.
func (st *loopStats) rpcLatencies() []float64 {
	lat := append([]float64(nil), st.rpcLatUs...)
	for i, v := range lat {
		if math.IsInf(v, 1) {
			lat[i] = st.seconds * 1e6
		}
	}
	return lat
}

// endToEnd computes the metrics a user of nicd or fleetd sees.
func (st *loopStats) endToEnd() []metric {
	lat := st.rpcLatencies()
	weighted := 0.0
	for i, m := range st.winMean {
		weighted += m * st.winPkts[i]
	}
	return []metric{
		{"setup_s", median(st.setupS), "s", len(st.setupS)},
		{"pkt_rate_mpps", float64(st.pkts) / st.busy.Seconds() / 1e6, "Mpps", int(st.pkts)},
		{"modeled_latency_ns_mean", weighted / sum(st.winPkts), "ns", int(sum(st.winPkts))},
		{"round_ms_p50", quantile(st.roundMs, 0.5), "ms", len(st.roundMs)},
		{"round_ms_p90", quantile(st.roundMs, 0.9), "ms", len(st.roundMs)},
		{"rpc_us_p50", quantile(lat, 0.5), "us", len(lat)},
		{"heap_peak_mb", float64(st.heapPeak) / (1 << 20), "MB", 1},
	}
}

// sideMetrics are reported in the text beside the end-to-end metrics
// but not in the result line. fail_frac and verdict_mismatch_frac can be
// 0. The emulator's latencies are discrete (one value per path), so a
// window's p99 lands on the same path latency whatever the seed: the
// median over windows reads the same on every run. rpc_us_p99 follows
// the host's scheduling stalls: on a busy shared host its run-to-run
// spread exceeded any bound the result line may carry.
func (st *loopStats) sideMetrics() []metric {
	lat := st.rpcLatencies()
	return append([]metric{
		{"modeled_latency_ns_p99", median(st.winP99), "ns", len(st.winP99)},
		{"rpc_us_p99", quantile(lat, 0.99), "us", len(lat)},
	}, st.fracs()...)
}

// fracs is fail_frac and verdict_mismatch_frac.
func (st *loopStats) fracs() []metric {
	compared, mismatched, _ := st.mismatches()
	return []metric{
		{"fail_frac", ratio(float64(st.failed), float64(st.attempted)), "frac", st.attempted},
		{"verdict_mismatch_frac", ratio(float64(mismatched), float64(compared)), "frac", compared},
	}
}

// perLayer computes the traced run's per-layer metrics from the spans
// and the counters the program exposes.
func (st *loopStats) perLayer(spans []span) []metric {
	var out []metric
	add := func(name string, v float64, unit string, n int) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v, n = 0, 0
		}
		out = append(out, metric{name, v, unit, n})
	}
	med := func(name, unit string, scale float64) {
		d := durationsUs(spans, name)
		add(name+"_"+unit, median(d)*scale, unit, len(d))
	}
	pkts := float64(st.pkts)

	// nicsim
	add("nicsim.ns_per_pkt", float64(st.measure)/pkts, "ns", int(st.pkts))
	add("nicsim.allocs_per_window", median(st.allocs), "count", len(st.allocs))
	add("nicsim.cache_hit_ratio", ratio(float64(st.cacheHits), float64(st.cacheLookups)), "frac", int(st.cacheLookups))
	add("nicsim.counter_updates_per_pkt", st.counterUpdates/pkts, "count", int(st.pkts))
	add("nicsim.cache_invalidations_per_kpkt", float64(st.cacheInvalidations)/pkts*1000, "count", int(st.pkts))
	// profile, target
	for _, n := range []struct{ name, unit string }{
		{"profile.snapshot", "us"}, {"target.deploy", "us"}, {"target.commit", "us"},
		{"target.rollback", "us"}, {"target.measure", "us"}, {"target.cachestats", "us"},
		{"target.entry_op", "us"}, {"trafficgen.sampler", "us"},
	} {
		med(n.name, n.unit, 1)
	}
	add("target.deploys", float64(len(durationsUs(spans, "target.deploy"))), "count", 1)
	add("target.rollbacks", float64(len(durationsUs(spans, "target.rollback"))), "count", 1)
	// trafficgen
	add("trafficgen.ns_per_pkt", float64(st.genTime)/pkts, "ns", int(st.pkts))
	// opt
	add("opt.search_ms", median(st.searchMs), "ms", len(st.searchMs))
	var uh, um, vh, vm uint64
	switch {
	case st.runtime != nil:
		uh, um, vh, vm = st.runtime.SearchUnitHits, st.runtime.SearchUnitMisses, st.runtime.SearchVerifyHits, st.runtime.SearchVerifyMisses
	case st.fleet != nil:
		o := st.fleet.OptSearch
		uh, um, vh, vm = o.UnitHits, o.UnitMisses, o.VerifyHits, o.VerifyMisses
	}
	add("opt.unit_memo_hit_ratio", ratio(float64(uh), float64(uh+um)), "frac", int(uh+um))
	add("opt.verify_memo_hit_ratio", ratio(float64(vh), float64(vh+vm)), "frac", int(vh+vm))
	// analysis
	med("analysis.lint", "us", 1)
	med("analysis.verify_rewrite", "us", 1)
	med("analysis.verify_semantics", "ms", 1e-3)

	// core
	self := selfTimes(spans)
	var roundSelf []float64
	for i, s := range spans {
		if s.Name == "core.round" || s.Name == "fleet.rollout" {
			roundSelf = append(roundSelf, float64(self[i])/1e6)
		}
	}
	add("core.round_self_ms", median(roundSelf), "ms", len(roundSelf))
	add("core.search_round_frac", ratio(float64(st.searched), float64(st.rounds)), "frac", st.rounds)
	add("core.rollback_ratio", ratio(float64(st.rollbacks), float64(st.deploys)), "frac", st.deploys)
	breaker := 0
	if st.runtime != nil {
		breaker = st.runtime.BreakerOpenRounds
	}
	add("core.breaker_open_rounds", float64(breaker), "count", st.rounds)
	entryOp, entryWait, redeploy, rpcOver := entryPath(spans)
	add("core.entry_op_us", median(entryOp), "us", len(entryOp))
	add("core.entry_wait_us", median(entryWait), "us", len(entryWait))
	add("core.entry_redeploy_frac", ratio(redeploy, float64(len(entryOp))), "frac", len(entryOp))
	add("core.entry_redeploys", redeploy, "count", len(entryOp))
	// controlplane
	add("controlplane.rpc_overhead_us", median(rpcOver), "us", len(rpcOver))
	lat := st.rpcLatencies()
	add("controlplane.rpc_us_p99", quantile(lat, 0.99), "us", len(lat))
	add("controlplane.gen_lag_ms", quantile(st.rpcLagUs, 0.99)/1e3, "ms", len(st.rpcLagUs))
	// fleet
	var pcHits, pcLookups uint64
	if st.fleet != nil {
		pcHits, pcLookups = st.fleet.PlanCache.Hits, st.fleet.PlanCache.Hits+st.fleet.PlanCache.Misses
	}
	add("fleet.plan_cache_hit_ratio", ratio(float64(pcHits), float64(pcLookups)), "frac", int(pcLookups))
	dd := deployTxns(spans)
	add("target.deploy_txn_ms", median(dd), "ms", len(dd))
	add("fleet.rollbacks", float64(st.deviceRollbacks), "count", st.devResults)
	// set-up
	for _, k := range []string{"p4c.compile_ms", "nicsim.new_ms", "core.new_runtime_ms", "controlplane.listen_ms"} {
		add(k, median(st.setupLayer[k]), "ms", len(st.setupLayer[k]))
	}
	// where the loop's time went
	shares := layerShares(spans)
	for _, l := range layers {
		add(l+".self_frac", shares[l], "frac", 1)
	}
	return out
}

// layers are the program's modules a span can be charged to.
var layers = []string{"trafficgen", "nicsim", "profile", "target", "opt", "analysis", "core", "controlplane", "fleet"}

// layerShares is each layer's share of the self time of every span that
// belongs to the loop. Set-up spans (no group) are left out, and so is
// traffic generation for the windows, which stands in for an external
// traffic generator and is excluded from pkt_rate_mpps too.
func layerShares(spans []span) map[string]float64 {
	self := selfTimes(spans)
	by := map[string]float64{}
	total := 0.0
	for i, s := range spans {
		if s.Group == "" || s.Name == "trafficgen.window" {
			continue
		}
		by[s.layer()] += float64(self[i])
		total += float64(self[i])
	}
	for k, v := range by {
		by[k] = v / total
	}
	return by
}

// entryPath splits each control-plane entry operation: the backend's
// time (core.entry_op), the part of it not spent in the target (the wait
// for the runtime lock plus the API mapping), whether the target saw a
// Deploy during it, and the rpc time outside the backend.
func entryPath(spans []span) (op, wait []float64, redeploys float64, rpcOver []float64) {
	children := map[int32][]int32{}
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	for i, s := range spans {
		switch s.Name {
		case "core.entry_op":
			var inTarget time.Duration
			deployed := false
			for _, c := range children[int32(i)] {
				cs := spans[c]
				if cs.layer() == "target" {
					inTarget += cs.dur()
				}
				if cs.Name == "target.deploy" {
					deployed = true
				}
			}
			op = append(op, float64(s.dur())/1e3)
			wait = append(wait, float64(s.dur()-inTarget)/1e3)
			if deployed {
				redeploys++
			}
		case "controlplane.rpc":
			for _, c := range children[int32(i)] {
				if cs := spans[c]; cs.Name == "core.entry_op" || cs.Name == "core.status" {
					rpcOver = append(rpcOver, float64(s.dur()-cs.dur())/1e3)
				}
			}
		}
	}
	return op, wait, redeploys, rpcOver
}

// deployTxns is, for every deploy transaction, the time from its first
// target call (the pre-deploy verify measurement, if any) to its last
// (commit or rollback). A transaction is one device's share of one
// round, rpc or rollout: a fleet device's deploy during a rollout, a
// runtime round's guarded deploy, or an entry operation's redeploy.
func deployTxns(spans []span) []float64 {
	type key struct {
		group string
		seq   int
		dev   string
	}
	first := map[key]int64{}
	last := map[key]int64{}
	deployed := map[key]bool{}
	for _, s := range spans {
		if s.Group == "" {
			continue
		}
		switch s.Name {
		case "target.measure", "target.deploy", "target.commit", "target.rollback":
		default:
			continue
		}
		k := key{s.Group, s.Seq, s.Where}
		if f, ok := first[k]; !ok || s.Start < f {
			first[k] = s.Start
		}
		last[k] = max(last[k], s.End)
		if s.Name == "target.deploy" {
			deployed[k] = true
		}
	}
	var out []float64
	for k := range deployed {
		out = append(out, float64(last[k]-first[k])/1e6)
	}
	return out
}

// moves records, for each per-layer metric, the end-to-end metric it
// should move and the workload where it should move it. A change that
// claims a gain names one of these pairs; the traced run shows whether
// the layer's number moved with it.
var moves = map[string]string{
	"nicsim.ns_per_pkt":                   "pkt_rate_mpps on steady-forward",
	"nicsim.allocs_per_window":            "pkt_rate_mpps on steady-forward",
	"nicsim.cache_hit_ratio":              "modeled_latency_ns_mean on steady-forward, phase-shift",
	"nicsim.counter_updates_per_pkt":      "modeled_latency_ns_mean on steady-forward, phase-shift",
	"nicsim.cache_invalidations_per_kpkt": "modeled_latency_ns_mean on entry-churn",
	"profile.snapshot_us":                 "round_ms_p50 on steady-forward",
	"target.deploy_us":                    "round_ms_p90 on phase-shift, fleet-rollout",
	"target.commit_us":                    "round_ms_p90 on phase-shift, fleet-rollout",
	"target.rollback_us":                  "round_ms_p90 on phase-shift, fleet-rollout",
	"target.measure_us":                   "round_ms_p90 on phase-shift, fleet-rollout",
	"target.cachestats_us":                "round_ms_p90 on phase-shift, fleet-rollout",
	"target.deploys":                      "round_ms_p90 on phase-shift, fleet-rollout",
	"target.rollbacks":                    "round_ms_p90 on phase-shift, fleet-rollout",
	"target.entry_op_us":                  "rpc_us_p50 on entry-churn",
	"trafficgen.ns_per_pkt":               "none: shows the generator is not the bottleneck",
	"trafficgen.sampler_us":               "round_ms_p90 on phase-shift",
	"opt.search_ms":                       "round_ms_p50, round_ms_p90 on phase-shift",
	"opt.unit_memo_hit_ratio":             "round_ms_p50, round_ms_p90 on phase-shift",
	"opt.verify_memo_hit_ratio":           "round_ms_p50, round_ms_p90 on phase-shift",
	"analysis.lint_us":                    "round_ms_p90 on phase-shift",
	"analysis.verify_rewrite_us":          "round_ms_p90 on phase-shift",
	"analysis.verify_semantics_ms":        "round_ms_p90 on phase-shift",
	"core.round_self_ms":                  "round_ms_p50 on steady-forward",
	"core.search_round_frac":              "round_ms_p50 on steady-forward",
	"core.rollback_ratio":                 "modeled_latency_ns_mean, round_ms_p90 on steady-forward",
	"core.breaker_open_rounds":            "modeled_latency_ns_mean, round_ms_p90 on steady-forward",
	"core.entry_op_us":                    "rpc_us_p50 and its p99 tail on entry-churn",
	"core.entry_wait_us":                  "rpc_us_p50 and its p99 tail on entry-churn",
	"core.entry_redeploy_frac":            "rpc_us_p50 and its p99 tail on entry-churn",
	"core.entry_redeploys":                "modeled_latency_ns_mean, rpc_us_p50 on entry-churn (cache changes by redeploy, which nicsim.cache_invalidations_per_kpkt does not count)",
	"controlplane.rpc_overhead_us":        "rpc_us_p50 on entry-churn",
	"controlplane.rpc_us_p99":             "rpc_us_p50 on entry-churn (its p99 tail)",
	"controlplane.gen_lag_ms":             "rpc_us_p50 on entry-churn",
	"fleet.plan_cache_hit_ratio":          "round_ms_p50, round_ms_p90 on fleet-rollout",
	"target.deploy_txn_ms":                "round_ms_p90 on phase-shift; round_ms_p50, round_ms_p90 on fleet-rollout",
	"fleet.rollbacks":                     "round_ms_p50, round_ms_p90 on fleet-rollout",
	"p4c.compile_ms":                      "setup_s on all",
	"nicsim.new_ms":                       "setup_s on all",
	"core.new_runtime_ms":                 "setup_s on all",
	"controlplane.listen_ms":              "setup_s on all",
}
