package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"

	"dvecap/internal/director"
	"dvecap/internal/topology"
	"dvecap/internal/vworld"
	"dvecap/internal/xrand"
)

// The service constants capdirector ships with: the delay bound D and the
// bandwidth model (25 frames/s of 100-byte state messages per zone
// member), which prices a client of a zone with p members at
// 0.02·(1+p) Mbps.
const (
	delayBoundMs = 250
	frameRate    = 25
	messageBytes = 100
)

// clientMbps is the director's bandwidth model, written exactly as the
// director evaluates it so the planner replica reproduces its floats.
func clientMbps(pop int) float64 {
	if pop == 0 {
		pop = 1
	}
	bytesPerSec := float64(frameRate) * (float64(messageBytes) + float64(pop)*float64(messageBytes))
	return bytesPerSec * 8 / 1e6
}

// opKind names one operation of a generated stream.
type opKind uint8

const (
	opJoin opKind = iota
	opLeave
	opMove
	opAdjAdd
	opReassign
	opReadStats
	opReadClient
)

var opNames = [...]string{"join", "leave", "move", "adjacency", "reassign", "read_stats", "read_client"}

func (k opKind) String() string { return opNames[k] }

// isWrite reports a mutation (a reassign counts; reads do not).
func (k opKind) isWrite() bool { return k <= opReassign }

// dirEvent is one request of a director workload's stream.
type dirEvent struct {
	Kind  opKind
	ID    string
	Node  int     // join: the client's topology node
	Zone  int     // join, move: target zone; adjacency: first zone
	Zone2 int     // adjacency: second zone
	Delta float64 // adjacency: weight increment, Mbps
}

// deployment is the static side of a director workload: the delay
// oracle, server placement and capacities, and the zone count.
type deployment struct {
	dm            *topology.DelayMatrix
	nodes         []int
	caps          []float64
	zones         int
	trafficWeight float64
	seed          uint64
}

// config is the director configuration capdirector would build for this
// deployment (in memory, no telemetry; callers add those).
func (dep *deployment) config() director.Config {
	return director.Config{
		ServerNodes:   dep.nodes,
		ServerCaps:    dep.caps,
		Zones:         dep.zones,
		Delays:        dep.dm,
		DelayBoundMs:  delayBoundMs,
		FrameRate:     frameRate,
		MessageBytes:  messageBytes,
		Algorithm:     "GreZ-GreC",
		Seed:          dep.seed,
		TrafficWeight: dep.trafficWeight,
	}
}

// delayRow derives the delay row of a client at a topology node, as the
// director does on join.
func delayRow(dm *topology.DelayMatrix, servers []int, node int) []float64 {
	r := make([]float64, len(servers))
	for i, s := range servers {
		r[i] = dm.RTT(node, s)
	}
	return r
}

// testbedSeed fixes the network every workload runs on. The run's seed
// drives everything that models load (client nodes and zones, the churn
// mix, the avatar world and its hot spots, the batches); the testbed —
// the topology, the server placement and the capacity shares — stays the
// same across seeds, so that seeds vary the load and not the hardware.
// Across testbeds drawn per seed, pQoS ranged 0.59–0.90 and re-solve time
// doubled, more than any regression bound could absorb.
const testbedSeed = 1

// testbed is the network of a workload: the paper's 500-node hierarchical
// topology with its delay oracle (built as capdirector builds it), the
// server nodes, and each server's share of the total capacity (with the
// floor-to-mean ratio of capdirector's defaults, 10 of 25 Mbps).
type testbed struct {
	dm     *topology.DelayMatrix
	nodes  []int
	shares []float64
}

func newTestbed(servers int) (*testbed, error) {
	rng := xrand.New(testbedSeed)
	g, err := topology.Hier(rng.Split(), topology.DefaultHier())
	if err != nil {
		return nil, err
	}
	dm, err := topology.NewDelayMatrix(g, 500, 0.5)
	if err != nil {
		return nil, err
	}
	nodes := rng.SampleWithout(dm.N(), servers)
	return &testbed{dm: dm, nodes: nodes, shares: rng.Simplex(servers, 1, 0.4/float64(servers))}, nil
}

// caps splits total capacity along the testbed's shares.
func (tb *testbed) caps(total float64) []float64 {
	out := make([]float64, len(tb.shares))
	for i, s := range tb.shares {
		out[i] = s * total
	}
	return out
}

// demandOf is the bandwidth model's total demand for zone populations.
func demandOf(pops []int) float64 {
	d := 0.0
	for _, p := range pops {
		d += float64(p) * clientMbps(p)
	}
	return d
}

// ---------------------------------------------------------------------------
// churn-durable

type churnConfig struct {
	Servers, Zones, Clients int
	Conns                   int
	// Util is the bandwidth model's demand over total capacity. Contacts
	// relay traffic on top of it, so 0.64 reads as a utilization near 0.8.
	Util          float64
	SnapshotEvery int
	ReassignEvery int // writes between POST /v1/reassign
	PQoSEvery     int // writes between pQoS samples
	RecoverTail   int // writes journaled after the final checkpoint
	TraceEvents   int
	NetRefUs      float64 // the net probe's reference reading in this loop (see probe.go)
}

type member struct {
	id   string
	zone int
}

type churnInputs struct {
	dep     *deployment
	preload []dirEvent
	gens    []*churnGen // one per connection, each with its own client pool
}

func genChurn(cfg churnConfig, seed uint64) (*churnInputs, error) {
	tb, err := newTestbed(cfg.Servers)
	if err != nil {
		return nil, err
	}
	rng, dm := xrand.New(seed), tb.dm
	dep := &deployment{dm: dm, nodes: tb.nodes, zones: cfg.Zones, seed: seed}
	in := &churnInputs{dep: dep}
	pops := make([]int, cfg.Zones)
	gens := make([]*churnGen, cfg.Conns)
	for c := range gens {
		gens[c] = &churnGen{conn: c, nodes: dm.N(), zones: cfg.Zones}
	}
	for i := 0; i < cfg.Clients; i++ {
		e := dirEvent{Kind: opJoin, ID: fmt.Sprintf("p%06d", i), Node: rng.IntN(dm.N()), Zone: rng.IntN(cfg.Zones)}
		pops[e.Zone]++
		in.preload = append(in.preload, e)
		g := gens[i%cfg.Conns]
		g.pool = append(g.pool, member{e.ID, e.Zone})
	}
	in.preload = append(in.preload, dirEvent{Kind: opReassign})
	dep.caps = tb.caps(demandOf(pops) / cfg.Util)
	for _, g := range gens {
		g.rng = rng.Split()
	}
	in.gens = gens
	return in, nil
}

// churnGen draws one connection's closed-loop requests: about 20% joins,
// 20% leaves, 40% moves and 20% reads, over the connection's own pool.
type churnGen struct {
	rng          *xrand.RNG
	conn         int
	pool         []member
	seq          int
	nodes, zones int
}

func (g *churnGen) event() dirEvent {
	r := g.rng.Float64()
	switch {
	case r < 0.2 || len(g.pool) == 0:
		g.seq++
		e := dirEvent{Kind: opJoin, ID: fmt.Sprintf("k%d-%06d", g.conn, g.seq), Node: g.rng.IntN(g.nodes), Zone: g.rng.IntN(g.zones)}
		g.pool = append(g.pool, member{e.ID, e.Zone})
		return e
	case r < 0.4:
		i := g.rng.IntN(len(g.pool))
		id := g.pool[i].id
		g.pool[i] = g.pool[len(g.pool)-1]
		g.pool = g.pool[:len(g.pool)-1]
		return dirEvent{Kind: opLeave, ID: id}
	case r < 0.8:
		i := g.rng.IntN(len(g.pool))
		z := g.rng.IntN(g.zones - 1)
		if z >= g.pool[i].zone {
			z++
		}
		g.pool[i].zone = z
		return dirEvent{Kind: opMove, ID: g.pool[i].id, Zone: z}
	case r < 0.9:
		return dirEvent{Kind: opReadStats}
	default:
		return dirEvent{Kind: opReadClient, ID: g.pool[g.rng.IntN(len(g.pool))].id}
	}
}

// traceStream interleaves the connections' generators round robin into
// one sequential stream of n requests, with a reassign every
// ReassignEvery writes, as the closed loop issues them.
func (in *churnInputs) traceStream(cfg churnConfig, n int) []dirEvent {
	out := make([]dirEvent, 0, n)
	writes := 0
	for i := 0; len(out) < n; i++ {
		e := in.gens[i%len(in.gens)].event()
		out = append(out, e)
		if e.Kind.isWrite() {
			writes++
			if writes%cfg.ReassignEvery == 0 && len(out) < n {
				out = append(out, dirEvent{Kind: opReassign})
				writes++
			}
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// mobility-hotspot

type mobilityConfig struct {
	Servers       int
	Cols, Rows    int
	Avatars       int
	HotZones      int
	HotBias       float64
	Groups        int
	GroupBias     float64
	TrafficWeight float64
	Util          float64
	StepSec       float64
	WarmupSteps   int     // world steps before the avatars join
	AdjEvery      int     // crossings between adjacency increments
	AdjDelta      float64 // Mbps added per adjacency increment
	ReassignEvery int     // crossings between POST /v1/reassign
	PQoSEvery     int     // writes between GET /v1/stats samples
	Horizon       int     // writes over which the quality figures are taken
	TraceEvents   int
	NetRefUs      float64 // the net probe's reference reading in this loop (see probe.go)
}

type mobilityInputs struct {
	dep     *deployment
	preload []dirEvent
	gen     *mobilityGen
}

func genMobility(cfg mobilityConfig, seed uint64) (*mobilityInputs, error) {
	tb, err := newTestbed(cfg.Servers)
	if err != nil {
		return nil, err
	}
	rng, dm := xrand.New(seed), tb.dm
	m, err := vworld.NewMap(1000, 1000, cfg.Cols, cfg.Rows)
	if err != nil {
		return nil, err
	}
	w, err := vworld.NewWorld(rng.Split(), m, vworld.Config{
		Avatars:      cfg.Avatars,
		MinSpeed:     5,
		MaxSpeed:     15,
		PauseMeanSec: 5,
		HotZones:     rng.SampleWithout(m.Zones(), cfg.HotZones),
		HotBias:      cfg.HotBias,
		Groups:       cfg.Groups,
		GroupBias:    cfg.GroupBias,
	})
	if err != nil {
		return nil, err
	}
	dep := &deployment{dm: dm, nodes: tb.nodes, zones: m.Zones(), seed: seed, trafficWeight: cfg.TrafficWeight}
	in := &mobilityInputs{dep: dep}
	// Warm the world up before anyone joins: the initial hot-biased
	// placement crowds the hot zones (433 avatars at most) far beyond the
	// steady state (about 150) the walk settles into within 150 steps, and
	// the interaction graph fills as crossings accumulate. Measured from a
	// cold world, the cost per request drifted by half within one run.
	var adj []dirEvent
	crossings := 0
	for s := 0; s < cfg.WarmupSteps; s++ {
		for _, c := range w.StepCrossings(cfg.StepSec) {
			if crossings++; crossings%cfg.AdjEvery == 0 {
				adj = append(adj, dirEvent{Kind: opAdjAdd, Zone: c.From, Zone2: c.To, Delta: cfg.AdjDelta})
			}
		}
	}
	for i := range w.Avatars {
		in.preload = append(in.preload, dirEvent{Kind: opJoin, ID: avatarID(i), Node: rng.IntN(dm.N()), Zone: w.ZoneOf(i)})
	}
	in.preload = append(append(in.preload, adj...), dirEvent{Kind: opReassign})
	dep.caps = tb.caps(demandOf(w.Populations()) / cfg.Util)
	in.gen = &mobilityGen{cfg: cfg, world: w}
	return in, nil
}

func avatarID(i int) string { return fmt.Sprintf("a%06d", i) }

// mobilityGen steps the world and turns its zone crossings into requests:
// a move per crossing, an adjacency increment every AdjEvery crossings, a
// reassign every ReassignEvery crossings and a stats read every PQoSEvery
// writes. The order is fixed by the seed.
type mobilityGen struct {
	cfg       mobilityConfig
	world     *vworld.World
	queue     []vworld.Crossing
	pending   []dirEvent
	crossings int
	writes    int
}

func (g *mobilityGen) push(e dirEvent) {
	g.pending = append(g.pending, e)
	if e.Kind.isWrite() {
		g.writes++
		if g.writes%g.cfg.PQoSEvery == 0 {
			g.pending = append(g.pending, dirEvent{Kind: opReadStats})
		}
	}
}

func (g *mobilityGen) event() dirEvent {
	for len(g.pending) == 0 {
		if len(g.queue) == 0 {
			g.queue = g.world.StepCrossings(g.cfg.StepSec)
			continue
		}
		c := g.queue[0]
		g.queue = g.queue[1:]
		g.crossings++
		g.push(dirEvent{Kind: opMove, ID: avatarID(c.Avatar), Zone: c.To})
		if g.crossings%g.cfg.AdjEvery == 0 {
			g.push(dirEvent{Kind: opAdjAdd, Zone: c.From, Zone2: c.To, Delta: g.cfg.AdjDelta})
		}
		if g.crossings%g.cfg.ReassignEvery == 0 {
			g.push(dirEvent{Kind: opReassign})
		}
	}
	e := g.pending[0]
	g.pending = g.pending[1:]
	return e
}

// ---------------------------------------------------------------------------
// session-batch

type batchConfig struct {
	Servers, Zones, Clients int
	Batch                   int     // clients per batch call
	CapFactor               float64 // capacity over initial demand
	Workers                 int
	SnapshotEvery           int
	ResolveEvery            int // ticks between Resolve calls
	PQoSEvery               int // ticks between pQoS samples
	HorizonTicks            int // ticks over which the quality figures are taken
	RecoverTailTicks        int
	TraceTicks              int
	NetRefUs                float64 // the net probe's reference reading in this loop (see probe.go)
}

// batchClient is one generated client of the session workload.
type batchClient struct {
	id   string
	zone int
	mbps float64
	row  []float64
}

// batchEvent is one ClusterSession call: a batch of moves, joins or
// leaves, or a Resolve (opReassign).
type batchEvent struct {
	Kind  opKind
	IDs   []string
	Zones []int
	Mbps  []float64
	Rows  [][]float64
}

// clients is the number of clients the call carries (1 for a Resolve).
func (e *batchEvent) clients() int {
	if e.Kind == opReassign {
		return 1
	}
	return len(e.IDs)
}

type batchInputs struct {
	dm      *topology.DelayMatrix
	nodes   []int
	caps    []float64
	ss      [][]float64
	zones   int
	clients []batchClient
	gen     *batchGen
	seed    uint64
}

func genBatch(cfg batchConfig, seed uint64) (*batchInputs, error) {
	tb, err := newTestbed(cfg.Servers)
	if err != nil {
		return nil, err
	}
	rng, dm := xrand.New(seed), tb.dm
	in := &batchInputs{dm: dm, nodes: tb.nodes, zones: cfg.Zones, seed: seed}
	m := len(in.nodes)
	in.ss = make([][]float64, m)
	for i := range in.ss {
		in.ss[i] = make([]float64, m)
		for l := range in.ss[i] {
			a, b := i, l
			if a > b {
				a, b = b, a
			}
			in.ss[i][l] = dm.ServerRTT(in.nodes[a], in.nodes[b])
		}
	}
	zone := make([]int, cfg.Clients)
	node := make([]int, cfg.Clients)
	pops := make([]int, cfg.Zones)
	for j := range zone {
		zone[j], node[j] = rng.IntN(cfg.Zones), rng.IntN(dm.N())
		pops[zone[j]]++
	}
	g := &batchGen{cfg: cfg, nodes: in.nodes, dm: dm, pops: pops, where: map[string]int{}}
	in.clients = make([]batchClient, cfg.Clients)
	for j := range in.clients {
		c := batchClient{id: fmt.Sprintf("c%07d", j), zone: zone[j], mbps: clientMbps(pops[zone[j]]), row: delayRow(dm, in.nodes, node[j])}
		in.clients[j] = c
		g.add(member{c.id, c.zone})
	}
	in.caps = tb.caps(demandOf(pops) * cfg.CapFactor)
	g.rng = rng.Split()
	g.next = cfg.Clients
	in.gen = g
	return in, nil
}

// batchGen draws the session workload's ticks: a MoveBatch, a JoinBatch
// and a LeaveBatch of equal size (the population holds steady), plus a
// Resolve every ResolveEvery ticks. Joining clients are priced by the
// bandwidth model at their zone's initial population.
type batchGen struct {
	cfg   batchConfig
	rng   *xrand.RNG
	dm    *topology.DelayMatrix
	nodes []int
	pops  []int
	pool  []member
	where map[string]int // id → index in pool
	next  int
	ticks int
}

func (g *batchGen) add(m member) {
	g.where[m.id] = len(g.pool)
	g.pool = append(g.pool, m)
}

func (g *batchGen) remove(i int) {
	last := len(g.pool) - 1
	delete(g.where, g.pool[i].id)
	if i != last {
		g.pool[i] = g.pool[last]
		g.where[g.pool[i].id] = i
	}
	g.pool = g.pool[:last]
}

// tick returns the next tick's calls.
func (g *batchGen) tick() []batchEvent {
	g.ticks++
	b := g.cfg.Batch
	mv := batchEvent{Kind: opMove}
	for _, i := range g.rng.SampleWithout(len(g.pool), b) {
		z := g.rng.IntN(g.cfg.Zones - 1)
		if z >= g.pool[i].zone {
			z++
		}
		g.pool[i].zone = z
		mv.IDs = append(mv.IDs, g.pool[i].id)
		mv.Zones = append(mv.Zones, z)
	}
	jn := batchEvent{Kind: opJoin}
	for x := 0; x < b; x++ {
		id := fmt.Sprintf("c%07d", g.next)
		g.next++
		z := g.rng.IntN(g.cfg.Zones)
		jn.IDs = append(jn.IDs, id)
		jn.Zones = append(jn.Zones, z)
		jn.Mbps = append(jn.Mbps, clientMbps(g.pops[z]))
		jn.Rows = append(jn.Rows, delayRow(g.dm, g.nodes, g.rng.IntN(g.dm.N())))
	}
	lv := batchEvent{Kind: opLeave}
	for _, i := range g.rng.SampleWithout(len(g.pool), b) {
		lv.IDs = append(lv.IDs, g.pool[i].id)
	}
	for _, id := range lv.IDs {
		g.remove(g.where[id])
	}
	for x, id := range jn.IDs {
		g.add(member{id, jn.Zones[x]})
	}
	out := []batchEvent{mv, jn, lv}
	if g.ticks%g.cfg.ResolveEvery == 0 {
		out = append(out, batchEvent{Kind: opReassign})
	}
	return out
}

// ---------------------------------------------------------------------------
// Stream digests, for the determinism test.

type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{fnv.New64a()} }

func (d *digest) ints(v ...int) {
	var b [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(b[:], uint64(int64(x)))
		d.h.Write(b[:])
	}
}

func (d *digest) floats(v ...float64) {
	var b [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		d.h.Write(b[:])
	}
}

func (d *digest) str(s string) { d.ints(len(s)); d.h.Write([]byte(s)) }

func (d *digest) event(e dirEvent) {
	d.ints(int(e.Kind), e.Node, e.Zone, e.Zone2)
	d.str(e.ID)
	d.floats(e.Delta)
}

func (d *digest) deployment(dm *topology.DelayMatrix, nodes []int, caps []float64) {
	for u := 0; u < dm.N(); u++ {
		for v := 0; v < dm.N(); v++ {
			d.floats(dm.RTT(u, v))
		}
	}
	d.ints(nodes...)
	d.floats(caps...)
}

// streamDigest hashes a workload's generated inputs — topology,
// capacities, preload and the first n stream events — for one seed.
func streamDigest(workload string, sz sizes, seed uint64, n int) (uint64, error) {
	d := newDigest()
	switch workload {
	case "churn-durable":
		in, err := genChurn(sz.churn, seed)
		if err != nil {
			return 0, err
		}
		d.deployment(in.dep.dm, in.dep.nodes, in.dep.caps)
		for _, e := range in.preload {
			d.event(e)
		}
		for _, e := range in.traceStream(sz.churn, n) {
			d.event(e)
		}
	case "mobility-hotspot":
		in, err := genMobility(sz.mobility, seed)
		if err != nil {
			return 0, err
		}
		d.deployment(in.dep.dm, in.dep.nodes, in.dep.caps)
		for _, e := range in.preload {
			d.event(e)
		}
		for i := 0; i < n; i++ {
			d.event(in.gen.event())
		}
	case "session-batch":
		in, err := genBatch(sz.batch, seed)
		if err != nil {
			return 0, err
		}
		d.deployment(in.dm, in.nodes, in.caps)
		for _, c := range in.clients {
			d.str(c.id)
			d.ints(c.zone)
			d.floats(c.mbps)
			d.floats(c.row...)
		}
		for i := 0; i < n; i++ {
			for _, e := range in.gen.tick() {
				d.ints(int(e.Kind))
				for _, id := range e.IDs {
					d.str(id)
				}
				d.ints(e.Zones...)
				d.floats(e.Mbps...)
				for _, r := range e.Rows {
					d.floats(r...)
				}
			}
		}
	default:
		return 0, fmt.Errorf("unknown workload %q", workload)
	}
	return d.h.Sum64(), nil
}
