package main

import (
	"fmt"
	"os"
	"time"

	"dvecap"
	"dvecap/internal/core"
	"dvecap/internal/repair"
	"dvecap/internal/xrand"
	"dvecap/telemetry"
)

func serverID(i int) string { return fmt.Sprintf("s%02d", i) }
func zoneID(z int) string   { return fmt.Sprintf("z%03d", z) }

// openSession builds the cluster and opens a session over it: durable
// under dir, or in memory when dir is empty; reg may be nil.
func openSession(in *batchInputs, cfg batchConfig, dir string, reg *telemetry.Registry) (*dvecap.ClusterSession, error) {
	c := dvecap.NewCluster(delayBoundMs)
	for i := range in.nodes {
		if err := c.AddServer(serverID(i), dvecap.ServerSpec{CapacityMbps: in.caps[i]}); err != nil {
			return nil, err
		}
	}
	if err := c.SetServerRTTs(in.ss); err != nil {
		return nil, err
	}
	for z := 0; z < in.zones; z++ {
		if err := c.AddZone(zoneID(z)); err != nil {
			return nil, err
		}
	}
	for _, cl := range in.clients {
		if err := c.AddClient(cl.id, dvecap.ClientSpec{Zone: zoneID(cl.zone), BandwidthMbps: cl.mbps, RTTRow: cl.row}); err != nil {
			return nil, err
		}
	}
	opts := []dvecap.Option{dvecap.WithWorkers(cfg.Workers), dvecap.WithSeed(in.seed)}
	if dir != "" {
		opts = append(opts, dvecap.WithDurability(dir), dvecap.WithSnapshotEvery(cfg.SnapshotEvery))
	}
	if reg != nil {
		opts = append(opts, dvecap.WithTelemetry(reg))
	}
	return c.Open("GreZ-GreC", opts...)
}

// batchSetup generates the inputs and opens the session; the time covers
// the topology, the cluster, the initial solve and, when durable, the
// baseline snapshot.
func batchSetup(cfg batchConfig, seed uint64, dir string, reg *telemetry.Registry) (*batchInputs, *dvecap.ClusterSession, time.Duration, error) {
	start := time.Now()
	in, err := genBatch(cfg, seed)
	if err != nil {
		return nil, nil, 0, err
	}
	s, err := openSession(in, cfg, dir, reg)
	if err != nil {
		return nil, nil, 0, err
	}
	return in, s, time.Since(start), nil
}

// batchCaller prepares one call's arguments outside the timed region and
// returns the call itself.
type batchCaller interface {
	prepare(e *batchEvent) func() error
}

type sessionCaller struct{ s *dvecap.ClusterSession }

func (c sessionCaller) prepare(e *batchEvent) func() error {
	switch e.Kind {
	case opMove:
		zones := make([]string, len(e.Zones))
		for x, z := range e.Zones {
			zones[x] = zoneID(z)
		}
		return func() error { return c.s.MoveBatch(e.IDs, zones) }
	case opJoin:
		joins := make([]dvecap.ClientJoin, len(e.IDs))
		for x, id := range e.IDs {
			joins[x] = dvecap.ClientJoin{ID: id, Spec: dvecap.ClientSpec{Zone: zoneID(e.Zones[x]), BandwidthMbps: e.Mbps[x], RTTRow: e.Rows[x]}}
		}
		return func() error { return c.s.JoinBatch(joins) }
	case opLeave:
		return func() error { return c.s.LeaveBatch(e.IDs) }
	}
	return c.s.Resolve
}

// batchPlanner is the session's planner rebuilt directly over
// internal/repair from the same problem, algorithm, options and seed.
type batchPlanner struct {
	b  *repair.IDBinding
	pl *repair.Planner
}

func newBatchPlanner(in *batchInputs, cfg batchConfig, reg *telemetry.Registry) (*batchPlanner, error) {
	algo, ok := core.ByName("GreZ-GreC")
	if !ok {
		return nil, fmt.Errorf("no GreZ-GreC algorithm")
	}
	k := len(in.clients)
	p := &core.Problem{
		ServerCaps:  append([]float64(nil), in.caps...),
		ClientZones: make([]int, k),
		NumZones:    in.zones,
		ClientRT:    make([]float64, k),
		CS:          make([][]float64, k),
		SS:          make([][]float64, len(in.ss)),
		D:           delayBoundMs,
	}
	for i := range in.ss {
		p.SS[i] = append([]float64(nil), in.ss[i]...)
	}
	ids := make([]string, k)
	for j, c := range in.clients {
		ids[j], p.ClientZones[j], p.ClientRT[j] = c.id, c.zone, c.mbps
		p.CS[j] = append([]float64(nil), c.row...)
	}
	pl, err := repair.New(repair.Config{
		Algo: algo,
		Opt:  core.Options{Overflow: core.SpillLargestResidual, Workers: cfg.Workers},
	}, p, xrand.New(in.seed).Split())
	if err != nil {
		return nil, err
	}
	b, err := repair.NewIDBinding(pl, ids)
	if err != nil {
		return nil, err
	}
	if reg != nil {
		pl.SetTelemetry(reg)
	}
	return &batchPlanner{b: b, pl: pl}, nil
}

func (t *batchPlanner) prepare(e *batchEvent) func() error {
	switch e.Kind {
	case opMove:
		return func() error { return t.b.MoveBatch(e.IDs, e.Zones) }
	case opJoin:
		return func() error { return t.b.JoinBatch(e.IDs, e.Zones, e.Mbps, e.Rows) }
	case opLeave:
		return func() error { return t.b.LeaveBatch(e.IDs) }
	}
	return t.pl.FullSolve
}

func (t *batchPlanner) state() layerState {
	st := t.pl.Stats()
	return layerState{Clients: t.b.Len(), WithQoS: t.pl.WithQoS(), PQoS: t.pl.PQoS(), Cut: t.pl.TrafficCut(),
		Handoffs: st.ZoneHandoffs, Switches: st.ContactSwitches, Hosts: t.pl.ZoneServers()}
}

// sessionState reads a session's state in the layers' shared vocabulary;
// zone hosts are dense server indices in zone-index order.
func sessionState(s *dvecap.ClusterSession) (layerState, error) {
	st := s.Stats()
	out := layerState{Clients: s.NumClients(), PQoS: s.PQoS(), Cut: s.TrafficCut(),
		Handoffs: st.ZoneHandoffs, Switches: st.ContactSwitches}
	res, err := s.Result()
	if err != nil {
		return out, err
	}
	out.WithQoS = res.WithQoS
	idx := map[string]int{}
	for i, id := range s.ServerIDs() {
		idx[id] = i
	}
	for _, z := range s.ZoneIDs() {
		h, err := s.ZoneHost(z)
		if err != nil {
			return out, err
		}
		out.Hosts = append(out.Hosts, idx[h])
	}
	return out, nil
}

// batchQuality is session-batch's deterministic quality figures over the
// first HorizonTicks ticks.
type batchQuality struct {
	pqos     []float64
	h0       int
	handoffs int
	writes   int
}

// runTicks drives a session through its generator until the horizon (and,
// when deadline is set, until the deadline and minWrites calls too),
// timing every call. pr, when set, is read once a tick.
func runTicks(s *dvecap.ClusterSession, gen *batchGen, cfg batchConfig, deadline time.Time, r *loopStats, pr *probe) *batchQuality {
	q := &batchQuality{h0: s.Stats().ZoneHandoffs}
	c := sessionCaller{s}
	start := time.Now()
	calls := 0
	for ticks := 0; ticks < cfg.HorizonTicks || time.Now().Before(deadline) || (!deadline.IsZero() && calls < minWrites); ticks++ {
		evs := gen.tick()
		prepared := make([]func() error, len(evs))
		for i := range evs {
			prepared[i] = c.prepare(&evs[i])
		}
		calls += len(evs)
		if pr != nil {
			if err := pr.sample(&r.tl, start); err != nil {
				r.fail(err)
				break
			}
		}
		for i, call := range prepared {
			t0 := time.Now()
			err := call()
			el := time.Since(t0)
			n := evs[i].clients()
			r.ops += n
			if err != nil {
				r.fail(err)
				continue
			}
			r.tl.add(start, t0, el, classOf(evs[i].Kind), n)
			if ticks < cfg.HorizonTicks {
				q.writes += n
			}
		}
		if ticks < cfg.HorizonTicks && (ticks+1)%cfg.PQoSEvery == 0 {
			q.pqos = append(q.pqos, s.PQoS())
		}
		if ticks+1 == cfg.HorizonTicks {
			q.handoffs = s.Stats().ZoneHandoffs - q.h0
		}
		if r.failed > 100 {
			break
		}
	}
	return q
}

// runBatch is the session-batch end-to-end run: one goroutine driving a
// durable ClusterSession with batch churn and periodic re-solves.
func runBatch(cfg batchConfig, seed uint64, seconds float64, work string) (*report, error) {
	if cfg.HorizonTicks%cfg.PQoSEvery != 0 {
		return nil, fmt.Errorf("horizon %d is not a multiple of the pQoS cadence %d", cfg.HorizonTicks, cfg.PQoSEvery)
	}
	rep := newReport()
	pr, err := newProbe()
	if err != nil {
		return nil, err
	}
	defer pr.close()
	dir := work + "/data"
	var (
		in  *batchInputs
		s   *dvecap.ClusterSession
		set setups
	)
	if err := set.run(pr, func() (took time.Duration, err error) {
		in, s, took, err = batchSetup(cfg, seed, dir, telemetry.NewRegistry())
		return took, err
	}); err != nil {
		return nil, err
	}
	var r loopStats
	start := time.Now()
	q := runTicks(s, in.gen, cfg, start.Add(time.Duration(seconds*float64(time.Second))), &r, pr)
	elapsed := time.Since(start)
	rep.Attempted, rep.Failed = r.ops, r.failed
	if r.err != nil {
		rep.check("session call failed: %v", r.err)
	}
	checkSession(rep, s, len(in.gen.pool))
	rep.closedLoop(r.tl, elapsed, cfg.NetRefUs, mean(q.pqos), 1000*float64(q.handoffs)/float64(q.writes))
	r.tl = nil // the heap figure is the program's, not the benchmark's
	rep.Metrics.set("heap_mb", heapMB(), "MB")

	// Recovery: checkpoint, journal a fixed tail, reopen a copy.
	if err := s.Checkpoint(); err != nil {
		return nil, err
	}
	var tail loopStats
	tailCfg := cfg
	tailCfg.HorizonTicks = cfg.RecoverTailTicks
	runTicks(s, in.gen, tailCfg, time.Time{}, &tail, nil)
	if tail.err != nil {
		rep.check("recovery tail: %v", tail.err)
	}
	recoverS, err := checkSessionRecovery(rep, s, dir, cfg)
	if err != nil {
		return nil, err
	}

	dir2 := work + "/setup2"
	var (
		again *batchInputs
		s2    *dvecap.ClusterSession
	)
	if err := set.run(pr, func() (took time.Duration, err error) {
		again, s2, took, err = batchSetup(cfg, seed, dir2, telemetry.NewRegistry())
		return took, err
	}); err != nil {
		return nil, err
	}
	var r2 loopStats
	q2 := runTicks(s2, again.gen, cfg, time.Time{}, &r2, nil)
	if r2.err != nil {
		rep.check("reproduction: %v", r2.err)
	}
	if mean(q.pqos) != mean(q2.pqos) || q.handoffs != q2.handoffs || q.writes != q2.writes {
		rep.check("same seed gave pqos %v/%v, handoffs %d/%d over %d/%d writes",
			mean(q.pqos), mean(q2.pqos), q.handoffs, q2.handoffs, q.writes, q2.writes)
	}
	os.RemoveAll(dir2)
	dir3 := work + "/setup3"
	if err := set.run(pr, func() (time.Duration, error) {
		_, _, took, err := batchSetup(cfg, seed, dir3, telemetry.NewRegistry())
		return took, err
	}); err != nil {
		return nil, err
	}
	os.RemoveAll(dir3)
	set.report(rep)
	rep.Extra.set("recover_s", recoverS, "s")
	rep.Extra.set("error_rate", ratio(float64(r.failed), float64(r.ops)), "ratio")
	return rep, nil
}

// checkSession compares the session's view with the generator's: the
// client count, and the per-client QoS flags against an independent
// evaluation of the maintained assignment.
func checkSession(rep *report, s *dvecap.ClusterSession, live int) {
	if n := s.NumClients(); n != live {
		rep.check("session holds %d clients, generator %d", n, live)
	}
	res, err := s.Result()
	if err != nil {
		rep.check("session result: %v", err)
		return
	}
	qos := 0
	for _, id := range s.ClientIDs() {
		c, err := s.Client(id)
		if err != nil {
			rep.check("client %s: %v", id, err)
			return
		}
		if c.QoS {
			qos++
		}
	}
	if res.Clients != live || qos != res.WithQoS {
		rep.check("session lists %d clients, %d with qos; evaluation says %d and %d", live, qos, res.Clients, res.WithQoS)
	}
}

// checkSessionRecovery reopens a copy of the session's data directory and
// checks clients, with_qos, pQoS and every zone's host; it returns the
// reopen time in seconds.
func checkSessionRecovery(rep *report, s *dvecap.ClusterSession, dir string, cfg batchConfig) (float64, error) {
	want, err := sessionState(s)
	if err != nil {
		return 0, err
	}
	cp := dir + "-recovered"
	if err := copyDir(dir, cp); err != nil {
		return 0, err
	}
	defer os.RemoveAll(cp)
	start := time.Now()
	r, err := dvecap.NewCluster(delayBoundMs).Open("GreZ-GreC", dvecap.WithDurability(cp), dvecap.WithWorkers(cfg.Workers))
	if err != nil {
		return 0, err
	}
	took := time.Since(start).Seconds()
	got, err := sessionState(r)
	if err != nil {
		return 0, err
	}
	want.Handoffs, want.Switches, got.Handoffs, got.Switches = 0, 0, 0, 0
	if d := want.diff(got); d != "" {
		rep.check("recovered session differs: %s", d)
	}
	return took, nil
}
