package main

import (
	_ "embed"
	"fmt"
	"os"
	"sync"

	"pipeleon/internal/p4c"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
	"pipeleon/internal/stats"
	"pipeleon/internal/trafficgen"
)

// lbSource is the phase-shift program: cacheable ternary processing
// tables, a churnable exact load-balancing table and two drop ACLs in
// one pipelet (the shape of the paper's section 5.3.1 case study).
//
//go:embed lb.p4
var lbSource string

// dashPath is the flagship demo program nicd runs, read from the
// checkout.
const dashPath = "testdata/dash.p4"

// rpcRate is the control-plane client's open-loop request rate (1/s):
// entry inserts and deletes on entry-churn, status polls elsewhere. The
// rate is chosen, not taken from a measurement: high enough to give
// enough requests for a p99 in one run, low enough that the client does
// not fall behind while a round holds the runtime.
const rpcRate = 100

// churnTable is the entry-churn target, chosen by name: the exact
// load-balancing table, which the high-locality plan caches.
const churnTable = "lb"

// spec is one workload. Only the generated traffic and entries reach the
// program under test; everything else is fixed here.
type spec struct {
	name string
	why  string
	// program is "dash" (testdata/dash.p4) or "lb" (lb.p4).
	program string
	// deepVerify turns on the runtime's semantic-equivalence gate.
	deepVerify bool
	// windowPkts is the packets per traffic window; a round follows every
	// window.
	windowPkts int
	// phases rotate every windowsPerPhase windows; a single phase is
	// steady traffic.
	phases          []string
	windowsPerPhase int
	// churn makes the control-plane client insert and delete entries
	// instead of polling the status.
	churn bool
	// fleetDevices > 0 runs the fleet rollout instead of one runtime.
	fleetDevices int
	// oracleSample is how many packets of each window the oracle replays.
	oracleSample int
	// dominant are the layers predicted to have most of the loop's self
	// time; the traced run checks the prediction.
	dominant []string
}

var specs = []spec{
	{
		name:    "steady-forward",
		why:     "nicd's loop on dash.p4 (BlueField2) with the entries and traffic of the section 5.3.2 DASH case study (examples/dashrouting), 40000-packet windows; the datapath does most of the work",
		program: "dash", windowPkts: 40000, phases: []string{"dash"}, windowsPerPhase: 1,
		oracleSample: 256, dominant: []string{"nicsim"},
	},
	{
		name:    "phase-shift",
		why:     "2048-packet windows rotating between the Fig11b phases: high locality (60 flows, Zipf 1.0) and 60%-drop at either ACL (4000 flows); deep verify on; search, verify and deploy do most work",
		program: "lb", deepVerify: true, windowPkts: 2048,
		phases: []string{"local", "drop_src", "local", "drop_dst"}, windowsPerPhase: 4,
		oracleSample: 128, dominant: []string{"opt", "analysis", "target"},
	},
	{
		name:    "entry-churn",
		why:     "Fig11b high-locality traffic while one client inserts and deletes lb entries at a chosen 100/s; writes contend with reads for the runtime",
		program: "lb", deepVerify: true, windowPkts: 8192, phases: []string{"local"}, windowsPerPhase: 1,
		churn: true, oracleSample: 256, dominant: []string{"controlplane", "core", "target"},
	},
	{
		name:    "fleet-rollout",
		why:     "four device-only nicd servers reached over target/remote, on the phase-shift phases; each phase change is a plan search or plan-cache hit, then canary and wave rollout",
		program: "lb", windowPkts: 2048, phases: []string{"local", "drop_src", "local", "drop_dst"}, windowsPerPhase: 2,
		fleetDevices: 4, oracleSample: 64,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// loadProgram compiles the workload's P4 source. The dash demo gets the
// entry set of the section 5.3.2 DASH case study (examples/dashrouting):
// nicd installs no entries, and with only the ones dash.p4 declares every
// packet of nicd's self-generated traffic takes the same path, so the
// modeled latency would not depend on the traffic at all.
func loadProgram(which string) (*p4ir.Program, error) {
	src := lbSource
	if which == "dash" {
		data, err := os.ReadFile(dashPath)
		if err != nil {
			return nil, fmt.Errorf("reading %s (run from the repository root): %w", dashPath, err)
		}
		src = string(data)
	}
	prog, err := p4c.Compile(src)
	if err != nil {
		return nil, fmt.Errorf("compiling %s: %w", which, err)
	}
	if which == "dash" {
		installDashEntries(prog)
	}
	return prog, nil
}

// installDashEntries installs the case study's entries on dash.p4's
// tables of the same role: the static metadata tables match direction
// (tos 0, 1), appliance (ttl 63, 64, 128) and ENI (TCP, UDP); each ACL
// level holds twelve permit entries in six mask classes and one deny
// (source 0xdd000001, destination 0xdd000002, destination port 3389);
// routing adds 10.10/16 and 10.10.10/24 under dash.p4's own 10/8.
// Connection tracking stays empty, as in the case study.
func installDashEntries(prog *p4ir.Program) {
	add := func(table string, e p4ir.Entry) {
		t := prog.Tables[table]
		t.Entries = append(t.Entries, e)
	}
	exact := func(table, action string, vals ...uint64) {
		for i, v := range vals {
			add(table, p4ir.Entry{Match: []p4ir.MatchValue{{Value: v}}, Action: action, Args: []string{fmt.Sprint(i)}})
		}
	}
	exact("direction_lookup", "set_direction", 0, 1)
	exact("appliance_lookup", "set_appliance", 63, 64, 128)
	exact("eni_lookup", "set_eni", packet.ProtoTCP, packet.ProtoUDP)
	acl := func(table string, width int, deny uint64) {
		full := uint64(1)<<width - 1
		for i := 0; i < 12; i++ {
			mask := full &^ (uint64(1)<<((i%6)*2) - 1)
			add(table, p4ir.Entry{Priority: 6 - i%6, Action: "permit",
				Match: []p4ir.MatchValue{{Value: uint64(i) << 10 & mask & full, Mask: mask}}})
		}
		add(table, p4ir.Entry{Priority: 99, Action: "deny", Match: []p4ir.MatchValue{{Value: deny & full, Mask: full}}})
	}
	acl("acl_level1", 32, 0xdd000001)
	acl("acl_level2", 32, 0xdd000002)
	acl("acl_level3", 16, 3389)
	add("routing", p4ir.Entry{Match: []p4ir.MatchValue{{Value: 0x0a0a0000, PrefixLen: 16}}, Action: "fwd", Args: []string{"2"}})
	add("routing", p4ir.Entry{Match: []p4ir.MatchValue{{Value: 0x0a0a0a00, PrefixLen: 24}}, Action: "fwd", Args: []string{"3"}})
}

// phaseTraffic is one traffic phase: a generator for windows and a split
// child of it for the deploy guard's verification sampler, which may run
// on other goroutines (fleet rollout stages) and so is locked.
type phaseTraffic struct {
	name  string
	flows []trafficgen.Flow
	gen   *trafficgen.Generator
	mu    sync.Mutex
	vgen  *trafficgen.Generator
}

func (p *phaseTraffic) sample(n int) []*packet.Packet {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.vgen.Batch(n)
}

// lbPopulation fixes the flow populations of the lb.p4 phases; the seed
// draws the packet sequence from them. With populations drawn from the
// seed too, about a third of the seeds settled the optimizer on other
// plans (candidates whose estimated gains nearly tie), so the figures
// measured the choice of seed more than the program.
const lbPopulation = 1

// buildPhases makes every phase's generator from the seed, so the same
// seed gives the same packets.
func buildPhases(s spec, prog *p4ir.Program, seed uint64) ([]*phaseTraffic, error) {
	out := make([]*phaseTraffic, len(s.phases))
	made := map[string]*phaseTraffic{}
	for i, name := range s.phases {
		if p, ok := made[name]; ok {
			out[i] = p // a repeated phase replays the same flow population
			continue
		}
		k := uint64(len(made) + 1)
		gen := trafficgen.New(seed*131+k, 0)
		var flows []trafficgen.Flow
		switch name {
		case "dash":
			flows = dashFlows(seed)
		case "local":
			// The long-lived, high-locality phase of the DASH case
			// study (internal/experiments Fig11b phase 2): 60 flows at
			// Zipf 1.0.
			flows = localFlows(prog, lbPopulation*131+200+k, 60)
			gen.SetSkew(1.0)
		case "drop_src":
			// The short-lived phase of the same study (Fig11b phase 1):
			// 4000 flows, 60% of them dropped by one ACL; here the
			// ACL ports are those of the load-balancer study (Fig11a).
			flows = trafficgen.DropTargetedFlows(lbPopulation*131+300+k, 4000, "tcp.sport", 7777, 0.6)
		case "drop_dst":
			flows = trafficgen.DropTargetedFlows(lbPopulation*131+400+k, 4000, "tcp.dport", 8888, 0.6)
		default:
			return nil, fmt.Errorf("unknown traffic phase %q", name)
		}
		gen.AddFlows(flows...)
		p := &phaseTraffic{name: name, flows: flows, gen: gen, vgen: gen.Split(1)[0]}
		made[name] = p
		out[i] = p
	}
	return out, nil
}

// dashFlows is the DASH case study's traffic (examples/dashrouting):
// 3000 flows drawn uniformly, 60% of them to the RDP port that
// acl_level3 denies, alternating direction (tos 0, 1) and with the ttl
// the appliance table matches.
func dashFlows(seed uint64) []trafficgen.Flow {
	flows := trafficgen.DropTargetedFlows(seed*131+101, 3000, "tcp.dport", 3389, 0.6)
	for i := range flows {
		if flows[i].Fields == nil {
			flows[i].Fields = map[string]uint64{}
		}
		flows[i].Fields["ipv4.tos"] = uint64(i % 2)
		flows[i].Fields["ipv4.ttl"] = 64
	}
	return flows
}

// localFlows builds a small flow population whose fields hit the
// program's processing and load-balancing entries for half the flows,
// so the oracle sees metadata writes and caches see repeated keys. Which
// flows hit is fixed by flow rank (field j of flow i hits when bit j of
// i is clear), so under Zipf the share of packets hitting each table is
// the same for every seed; the seed draws only the values.
func localFlows(prog *p4ir.Program, seed uint64, n int) []trafficgen.Flow {
	rng := stats.NewRNG(seed)
	pick := func(hit bool, table string, random func() uint64) uint64 {
		if vals := entryValues(prog, table); hit && len(vals) > 0 {
			return vals[rng.Intn(len(vals))]
		}
		return random()
	}
	flows := make([]trafficgen.Flow, n)
	for i := range flows {
		hit := func(j int) bool { return i>>j&1 == 0 }
		flows[i] = trafficgen.Flow{
			Src:   uint32(pick(hit(0), "proc0", func() uint64 { return rng.Uint64() & 0xffff })),
			Dst:   uint32(pick(hit(1), churnTable, func() uint64 { return rng.Uint64() & 0xffffffff })),
			SPort: uint16(pick(hit(2), "proc2", func() uint64 { return uint64(1024 + rng.Intn(60000)) })),
			DPort: uint16(pick(hit(3), "proc3", func() uint64 { return uint64(1 + rng.Intn(1024)) })),
			Proto: packet.ProtoTCP,
		}
	}
	return flows
}

// entryValues lists the match values of a table's single-key entries.
func entryValues(prog *p4ir.Program, table string) []uint64 {
	t, ok := prog.Tables[table]
	if !ok {
		return nil
	}
	var out []uint64
	for _, e := range t.Entries {
		if len(e.Match) == 1 {
			out = append(out, e.Match[0].Value)
		}
	}
	return out
}

// churner issues balanced entry operations on the churn table: it keeps
// churnLive inserted entries, then alternates deleting the oldest and
// inserting a new one, so the table size and the run stay stationary.
// Its keys are destinations the traffic sends to that no installed entry
// matches, so every insert and delete changes how live packets are
// forwarded and a stale cache would show in the oracle.
type churner struct {
	keys []uint64 // cycled through; more than churnLive of them
	next int
	live []uint64
}

const churnLive = 16

// newChurner picks the churn keys from the flows' destinations.
func newChurner(prog *p4ir.Program, flows []trafficgen.Flow) (*churner, error) {
	installed := map[uint64]bool{}
	for _, v := range entryValues(prog, churnTable) {
		installed[v] = true
	}
	c := &churner{}
	for _, f := range flows {
		if k := uint64(f.Dst); !installed[k] {
			installed[k] = true
			c.keys = append(c.keys, k)
		}
	}
	if len(c.keys) <= churnLive {
		return nil, fmt.Errorf("churn needs more than %d distinct destinations, traffic has %d", churnLive, len(c.keys))
	}
	return c, nil
}

func (c *churner) op(i int) entryOp {
	if i < churnLive || i%2 == 1 {
		key := c.keys[c.next%len(c.keys)]
		c.next++
		c.live = append(c.live, key)
		return entryOp{table: churnTable, insert: true, entry: p4ir.Entry{
			Match:  []p4ir.MatchValue{{Value: key}},
			Action: "to_backend",
			Args:   []string{fmt.Sprint(key % 4)},
		}}
	}
	key := c.live[0]
	c.live = c.live[1:]
	return entryOp{table: churnTable, match: []p4ir.MatchValue{{Value: key}}}
}
