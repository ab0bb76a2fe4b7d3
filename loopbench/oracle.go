package main

import (
	"fmt"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/nicsim"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
)

// entryOp is one control-plane entry operation that succeeded on the
// program under test; the oracle replays it on its shadow NICs.
type entryOp struct {
	table  string
	insert bool
	entry  p4ir.Entry        // insert
	match  []p4ir.MatchValue // delete
}

func (op entryOp) apply(n *nicsim.NIC) error {
	if op.insert {
		return n.InsertEntry(op.table, op.entry)
	}
	return n.DeleteEntry(op.table, op.match)
}

// oracle checks that the deployed layout forwards like the original
// program. It runs outside the timed section on two shadow NICs of its
// own: ref runs the original program and cand the deployed one, both
// receive the same entry operations, and every sampled packet must get
// the same drop verdict and, when kept, the same header fields and the
// same value in every metadata field the original wrote.
//
// cand lives as long as the run and follows the device the way the
// device is driven: a newly deployed program reaches it through
// NIC.Swap, which keeps every runtime cache whose identity is unchanged,
// so a cache the device carries across a redeploy with results computed
// before an entry operation is carried by cand too, and shows as a
// disagreement with ref.
type oracle struct {
	cfg    nicsim.Config
	ref    *nicsim.NIC
	cand   *nicsim.NIC
	candOf *p4ir.Program // the program cand was last given

	compared   int
	mismatched int
	firstDiff  string
}

func newOracle(orig *p4ir.Program, pm costmodel.Params) (*oracle, error) {
	o := &oracle{cfg: nicsim.Config{Params: pm}}
	ref, err := nicsim.New(orig.Clone(), o.cfg)
	if err != nil {
		return nil, fmt.Errorf("oracle: reference NIC: %w", err)
	}
	o.ref = ref
	return o, nil
}

// sync brings both shadows up to date: ops (applied since the last call)
// go to the reference and, while the deployed program is the one cand
// was given, to cand as well, as the runtime's fast path sends them to
// the device. A newly deployed program already holds the ops and is
// swapped onto cand. The runtime sends an op to the device itself (and
// so invalidates the caches covering its table) only when no merged
// table covers the table; the oracle does not know whether an op landed
// before or after the redeploy, so it invalidates those caches when
// either program would have taken that fast path. Ops on tables merged
// in both programs reach the device only through the swap, and any
// cache the swap keeps is kept here too. The caller must keep cur from
// changing during the call.
func (o *oracle) sync(cur *p4ir.Program, ops []entryOp) error {
	for _, op := range ops {
		if err := op.apply(o.ref); err != nil {
			return fmt.Errorf("oracle: replaying on the original: %w", err)
		}
	}
	if o.cand == nil {
		cand, err := nicsim.New(cur.Clone(), o.cfg)
		if err != nil {
			return fmt.Errorf("oracle: deployed-layout NIC: %w", err)
		}
		o.cand, o.candOf = cand, cur
		return nil
	}
	if cur == o.candOf {
		for _, op := range ops {
			if err := op.apply(o.cand); err != nil {
				return fmt.Errorf("oracle: replaying on the deployed layout: %w", err)
			}
		}
		return nil
	}
	for _, op := range ops {
		if fastPath(o.candOf, op.table) {
			if err := op.apply(o.cand); err != nil {
				return fmt.Errorf("oracle: replaying on the deployed layout: %w", err)
			}
		}
	}
	if err := o.cand.Swap(cur); err != nil {
		return fmt.Errorf("oracle: swapping in the deployed layout: %w", err)
	}
	o.candOf = cur
	for _, op := range ops {
		if fastPath(cur, op.table) {
			// Same entries, rebuilt: invalidates the caches covering it.
			if err := o.cand.ReplaceEntries(op.table, cur.Tables[op.table].Entries); err != nil {
				return fmt.Errorf("oracle: invalidating on the deployed layout: %w", err)
			}
		}
	}
	return nil
}

// fastPath reports whether the runtime sends an entry op on table to a
// device running prog directly (core's entryOp fast path): the table is
// deployed as itself and no merged table covers it.
func fastPath(prog *p4ir.Program, table string) bool {
	if _, ok := prog.Tables[table]; !ok {
		return false
	}
	for _, t := range prog.Tables {
		if k := t.Annotations[p4ir.AnnotKind]; k != p4ir.KindMerged && k != p4ir.KindMergedCache {
			continue
		}
		for _, c := range splitCSV(t.Annotations[p4ir.AnnotCovers]) {
			if c == table {
				return false
			}
		}
	}
	return true
}

// check replays the sample through both shadows and returns how many
// packets disagreed.
func (o *oracle) check(sample []*packet.Packet) int {
	bad := 0
	for _, p := range sample {
		a, b := p.Clone(), p.Clone()
		ra := o.ref.Process(a)
		rb := o.cand.Process(b)
		o.compared++
		if diff := packetDiff(a, b, ra.Dropped, rb.Dropped); diff != "" {
			bad++
			o.mismatched++
			if o.firstDiff == "" {
				o.firstDiff = diff
			}
		}
	}
	return bad
}

// packetDiff describes the first observable difference between the
// original's output a and the deployed layout's output b ("" if none).
func packetDiff(a, b *packet.Packet, dropA, dropB bool) string {
	if dropA != dropB {
		return fmt.Sprintf("flow %v: drop %v on the original, %v on the deployed layout", a.Flow(), dropA, dropB)
	}
	if dropA {
		return ""
	}
	if a.Eth != b.Eth || a.IP != b.IP || a.TCP != b.TCP || a.UDP != b.UDP ||
		a.HasIPv4 != b.HasIPv4 || a.HasTCP != b.HasTCP || a.HasUDP != b.HasUDP {
		return fmt.Sprintf("flow %v: headers differ", a.Flow())
	}
	bm := b.MetaMap()
	for k, v := range a.MetaMap() {
		if w, ok := bm[k]; !ok || w != v {
			return fmt.Sprintf("flow %v: %s = %d on the original, %d (set: %v) on the deployed layout", a.Flow(), k, v, w, ok)
		}
	}
	return ""
}
