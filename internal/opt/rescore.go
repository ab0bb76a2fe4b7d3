package opt

import (
	"pipeleon/internal/costmodel"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/profile"
)

// ScoreOption re-evaluates one option's expected gain under the
// evaluator's (fresh) profile, without re-running the search. The runtime
// uses it to decide whether a newly found plan beats the plan already
// deployed by enough to justify a reconfiguration (§3.2.2's "if the
// performance is not expected, Pipeleon will adjust" — and, implicitly,
// if it is as expected, leave it alone). It scores with the same dense
// arithmetic as the candidate search, so under the profile a search ran
// with it reproduces the search's gains exactly.
func (ev *Evaluator) ScoreOption(o *Option) float64 {
	switch o.Kind {
	case OptPipelet:
		baseline, ok := ev.layoutLatency(o.Pipelet.Tables, nil)
		lat, ok2 := ev.layoutLatency(o.Order, o.Segments)
		if !ok || !ok2 {
			return 0
		}
		return (baseline - lat) * ev.reachOf(o.Pipelet.Head())
	case OptGroupCombo:
		var g float64
		for _, m := range o.Members {
			if m != nil {
				g += ev.ScoreOption(m)
			}
		}
		return g
	case OptGroupCache:
		if re := ev.groupCacheOption(o.Group, ev.groupBranchFields(o.Group)); re != nil {
			return re.Gain
		}
	}
	return 0
}

// ReScore sums the re-evaluated gains of a plan under a new profile.
// Options score independently (the evaluator is read-only after
// construction), so scoring fans out over cfg.SearchWorkers; the per-option
// scores are collected by index and summed serially, keeping the result
// bit-identical to a serial run. Options whose rewrite no longer passes
// verification against the current program contribute no gain, so a stale
// plan that became unsound is never re-selected on its old merits.
//
// This is the cold entry point, running on a throwaway Session; a
// long-lived runtime holds a Session and calls its ReScore so verdicts
// and evaluator state stay warm across rounds. A program that cannot be
// partitioned scores zero.
func ReScore(prog *p4ir.Program, prof *profile.Profile, pm costmodel.Params, cfg Config, plan []*Option) float64 {
	s, err := NewSession(prog, pm, cfg)
	if err != nil {
		return 0
	}
	return s.ReScore(prof, plan)
}
