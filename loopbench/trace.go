package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Spans are kept in
// memory and written out when the run ends; nothing inside the program
// under test is instrumented — every span is opened by the benchmark's
// own code around a call into a layer.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index of the parent span, -1 for a root
	// Group and Seq identify the round, rpc, rollout, window or setup
	// the span belongs to; children inherit them from their parent.
	Group string `json:"group"`
	Seq   int    `json:"seq"`
	// Where names the fleet device a target call went to.
	Where string `json:"where,omitempty"`
	// Estimated marks a span whose duration is known but whose position
	// inside the parent is not: opt.search (from RoundReport.SearchTime)
	// and the analysis probes. It is assumed not to overlap its siblings.
	Estimated bool `json:"estimated,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// layer is the span name up to the first dot ("target.deploy" → "target").
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer records spans. A nil *tracer records nothing, so the untraced
// run pays only a nil check at each boundary.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	open  map[int64][]int32 // goroutine id → stack of open spans
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), open: map[int64][]int32{}}
}

// goid returns the calling goroutine's id, parsed from the first line of
// its stack trace ("goroutine 17 [running]:"). The runtime target is
// called from two goroutines at once — the loop's round and a server
// connection's entry op — and this is how a wrapper tells which span
// the call belongs to.
func goid() int64 {
	var buf [40]byte
	n := runtime.Stack(buf[:], false)
	s := bytes.TrimPrefix(buf[:n], []byte("goroutine "))
	if i := bytes.IndexByte(s, ' '); i > 0 {
		s = s[:i]
	}
	id, _ := strconv.ParseInt(string(s), 10, 64)
	return id
}

// root opens a span with no parent on the calling goroutine.
func (t *tracer) root(name, group string, seq int) int32 {
	if t == nil {
		return -1
	}
	g := goid()
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: -1, Group: group, Seq: seq})
	t.open[g] = append(t.open[g], id)
	return id
}

// begin opens a span under the calling goroutine's innermost open span
// or, when the goroutine has none, under fallback (-1: a root with no
// group). Fleet rollouts deploy from goroutines of their own, and a
// control-plane server handles a request on its connection goroutine;
// their wrappers pass the rollout or rpc span as the fallback.
func (t *tracer) begin(name string, fallback int32) int32 {
	return t.beginOn(name, "", fallback)
}

// beginOn is begin for a call to the named fleet device.
func (t *tracer) beginOn(name, where string, fallback int32) int32 {
	if t == nil {
		return -1
	}
	g := goid()
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := fallback
	if st := t.open[g]; len(st) > 0 {
		parent = st[len(st)-1]
	}
	sp := span{Name: name, Start: now, Parent: parent, Where: where}
	if parent >= 0 {
		sp.Group, sp.Seq = t.spans[parent].Group, t.spans[parent].Seq
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, sp)
	t.open[g] = append(t.open[g], id)
	return id
}

// end closes span id, which must be the innermost open span of the
// calling goroutine.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	g := goid()
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	st := t.open[g]
	if len(st) > 0 && st[len(st)-1] == id {
		st = st[:len(st)-1]
	}
	if len(st) == 0 {
		delete(t.open, g)
	} else {
		t.open[g] = st
	}
}

// estimate records a child of parent whose duration d was measured
// elsewhere.
func (t *tracer) estimate(name string, parent int32, d time.Duration) {
	if t == nil || parent < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent]
	t.spans = append(t.spans, span{
		Name: name, Start: p.Start, End: p.Start + int64(d), Parent: parent,
		Group: p.Group, Seq: p.Seq, Estimated: true,
	})
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// durationsUs returns the durations of every closed span of the loop
// (set-up spans have no group) with the given name, in microseconds.
func durationsUs(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && s.Group != "" && s.End >= s.Start {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of it its measured children cover, minus its estimated children's
// durations (never below zero).
func selfTimes(spans []span) []time.Duration {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		if s.Estimated {
			self[i] = s.dur()
			continue
		}
		type iv struct{ a, b int64 }
		var ivs []iv
		var est time.Duration
		for _, c := range children[i] {
			cs := spans[c]
			if cs.Estimated {
				est += cs.dur()
				continue
			}
			a, b := max(cs.Start, s.Start), min(cs.End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, curA, curB int64
		curA, curB = -1, -1
		for _, v := range ivs {
			if v.a > curB {
				covered += curB - curA
				curA, curB = v.a, v.b
			} else if v.b > curB {
				curB = v.b
			}
		}
		covered += curB - curA
		d := s.dur() - time.Duration(covered) - est
		if d < 0 {
			d = 0
		}
		self[i] = d
	}
	return self
}

// writeTrace writes the spans as JSON to path, creating its directory.
func writeTrace(path string, fp fingerprint, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Fingerprint fingerprint `json:"fingerprint"`
		Spans       []span      `json:"spans"`
	}{fp, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
