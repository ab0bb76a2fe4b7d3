// Command loopbench drives the Pipeleon runtime loop end to end — the
// loop cmd/nicd runs (a window of traffic through
// nicsim.NIC.MeasureParallel(batch, 0), then core.Runtime.OptimizeOnce
// under the default DeployGuard) or, on fleet-rollout, fleetd's
// OptimizeAndRollout over device-only nicd servers — and prints every
// end-to-end metric with its unit and sample count.
//
// Usage, from the repository root:
//
//	bash loopbench/run.sh --workload steady-forward --seed 1 --seconds 25 --trace 0
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the loop
// twice for half the time each, untraced and then traced, and prints the
// per-layer metrics, every layer's self time and the tracing overhead;
// the spans go to .loopbench/trace-<workload>-<seed>.json. The last line
// of standard output is always one JSON object: correct, attempted,
// failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload: "+workloadNames())
		seed     = flag.Uint64("seed", 1, "input seed: the same seed gives the same traffic and entries")
		seconds  = flag.Float64("seconds", 20, "how long the loop is measured")
		trace    = flag.Int("trace", 0, "1: traced run printing per-layer metrics")
	)
	flag.Parse()
	s, ok := specByName(*workload)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(s, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintf(os.Stderr, "loopbench: %v\n", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, s := range specs {
		names = append(names, s.name)
	}
	return strings.Join(names, "|")
}

// runLoop runs one workload's loop into a fresh loopStats.
func runLoop(s spec, seed uint64, seconds float64, tr *tracer) (*loopStats, error) {
	// A collection first, so the garbage of the untraced half of a traced
	// run does not land in the traced half.
	runtime.GC()
	st := &loopStats{seconds: seconds}
	var err error
	if s.fleetDevices > 0 {
		err = runFleet(s, seed, limit{seconds: seconds}, tr, st)
	} else {
		err = runSingle(s, seed, limit{seconds: seconds}, tr, st)
	}
	return st, err
}

func run(s spec, seed uint64, seconds float64, traced bool) error {
	fp := machineFingerprint(s.name, seed, traced)
	fpJSON, err := json.Marshal(fp)
	if err != nil {
		return err
	}
	fmt.Printf("loopbench: machine %s\n", fpJSON)
	fmt.Printf("loopbench: workload %s — %s\n", s.name, s.why)

	if !traced {
		st, err := runLoop(s, seed, seconds, nil)
		if err != nil {
			return err
		}
		e2e := st.endToEnd()
		printMetrics("end-to-end", e2e)
		printMetrics("reported beside the result line", st.sideMetrics())
		return finish(st, e2e)
	}

	// Traced: an untraced half, then a traced half on the same seed;
	// their difference is the tracing overhead.
	half := seconds / 2
	base, err := runLoop(s, seed, half, nil)
	if err != nil {
		return err
	}
	tr := newTracer()
	st, err := runLoop(s, seed, half, tr)
	if err != nil {
		return err
	}
	spans := tr.snapshot()
	path := fmt.Sprintf(".loopbench/trace-%s-%d.json", s.name, seed)
	if err := writeTrace(path, fp, spans); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	fmt.Printf("loopbench: %d spans written to %s\n", len(spans), path)

	plain, withTrace := base.endToEnd(), st.endToEnd()
	fmt.Println("loopbench: tracing overhead (traced half vs untraced half):")
	for i := range plain {
		fmt.Printf("  %-26s %12.4f -> %12.4f %s (%+.1f%%)\n", plain[i].Name, plain[i].Value,
			withTrace[i].Value, plain[i].Unit, 100*(withTrace[i].Value-plain[i].Value)/plain[i].Value)
	}
	printSelfTimes(s, spans)
	layer := st.perLayer(spans)
	over := func(name string) float64 {
		for i := range plain {
			if plain[i].Name == name {
				return withTrace[i].Value/plain[i].Value - 1
			}
		}
		return math.NaN()
	}
	layer = append(layer,
		metric{"trace.round_overhead_frac", over("round_ms_p50"), "frac", len(st.roundMs)},
		metric{"trace.rate_overhead_frac", -over("pkt_rate_mpps"), "frac", int(st.pkts)},
	)
	layer = append(layer, st.fracs()...)
	printMetrics("per-layer", layer)
	return finish(st, layer)
}

// printSelfTimes prints each layer's self time over the traced loop and
// checks it against the layer split the workload is built to show.
func printSelfTimes(s spec, spans []span) {
	shares := layerShares(spans)
	self := selfTimes(spans)
	abs := map[string]float64{}
	for i, s := range spans {
		if s.Group != "" && s.Name != "trafficgen.window" {
			abs[s.layer()] += self[i].Seconds()
		}
	}
	names := make([]string, 0, len(shares))
	for l := range shares {
		names = append(names, l)
	}
	sort.Slice(names, func(i, j int) bool { return shares[names[i]] > shares[names[j]] })
	fmt.Println("loopbench: self time by layer (window traffic generation excluded):")
	for _, l := range names {
		fmt.Printf("  %-13s %8.3f s  %5.1f%%\n", l, abs[l], 100*shares[l])
	}
	if len(s.dominant) == 0 {
		return
	}
	predicted := 0.0
	for _, l := range s.dominant {
		predicted += shares[l]
	}
	verdict := "confirmed"
	if predicted <= 0.5 {
		verdict = "NOT confirmed"
	}
	fmt.Printf("loopbench: layer split %s: %s predicted to have most of the self time, have %.1f%%\n",
		verdict, strings.Join(s.dominant, "+"), 100*predicted)
}

func printMetrics(title string, ms []metric) {
	fmt.Printf("loopbench: %s metrics:\n", title)
	for _, m := range ms {
		note := moves[m.Name]
		if m.Samples == 0 {
			note = "(not exercised on this workload) " + note
		}
		fmt.Printf("  %-36s %14.4f %-5s n=%-8d %s\n", m.Name, m.Value, m.Unit, m.Samples, note)
	}
}

// finish prints notes and correctness findings, then the result line.
func finish(st *loopStats, ms []metric) error {
	compared, mismatched, first := st.mismatches()
	for _, n := range st.notes {
		fmt.Printf("loopbench: %s\n", n)
	}
	fmt.Printf("loopbench: oracle compared %d packets, %d disagreed with the original program\n", compared, mismatched)
	if first != "" {
		fmt.Printf("loopbench: first disagreement: %s\n", first)
	}
	for _, e := range st.errors {
		fmt.Printf("loopbench: INCORRECT: %s\n", e)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   len(st.errors) == 0 && compared > 0 && mismatched == 0,
		Attempted: st.attempted,
		Failed:    st.failed,
		Metrics:   map[string]value{},
	}
	for _, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s has no value (%v samples)", m.Name, m.Samples)
		}
		out.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}
