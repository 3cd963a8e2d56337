package main

import (
	"fmt"
	"strings"
	"time"

	"dvecap"
	"dvecap/internal/director"
	"dvecap/internal/repair"
	"dvecap/internal/wal"
	"dvecap/telemetry"
)

// The traced run records a workload's stream once and replays it through
// each layer's entry point, every layer from the same starting state.
// Spans are taken in this file around the calls into each layer; the gap
// between two neighbouring layers on the same stream is the outer layer's
// self time.

// layerRun is one layer's replay of the stream.
type layerRun struct {
	byOp     [len(opNames)]samples
	writes   samples // joins, leaves, moves and adjacency increments
	reads    samples
	resolves samples
	failures int
	err      error
}

func (r *layerRun) observe(k opKind, d time.Duration, err error) {
	if err != nil {
		r.failures++
		if r.err == nil {
			r.err = err
		}
		return
	}
	r.byOp[k].add(d)
	switch {
	case k == opReassign:
		r.resolves.add(d)
	case k.isWrite():
		r.writes.add(d)
	default:
		r.reads.add(d)
	}
}

// lane is one layer's instance in a lockstep replay. An empty layer name
// records no spans and reads the clock only per block; a nil call skips
// the event.
type lane struct {
	layer string
	prep  func(i int) func() error // the call for stream event i
	run   layerRun
	took  time.Duration
}

// lockstep replays a stream through every lane in alternating blocks of
// events, so that all layers share whatever the disk and the machine do
// meanwhile (fsync latency, garbage collection, other tenants) and the
// gaps between them measure the layers, not the moment. Copies with and
// without the telemetry registry give its overhead; a copy that records
// no spans gives the tracing overhead.
func lockstep(tr *tracer, kinds []opKind, lanes []*lane) {
	const block = 100
	for lo := 0; lo < len(kinds); lo += block {
		hi := min(lo+block, len(kinds))
		for _, l := range lanes {
			b0 := time.Now()
			for i := lo; i < hi; i++ {
				call := l.prep(i)
				if call == nil {
					continue
				}
				if l.layer == "" {
					if err := call(); err != nil {
						l.run.observe(kinds[i], 0, err)
					}
					continue
				}
				t0 := time.Now()
				err := call()
				t1 := time.Now()
				tr.record(i, l.layer, kinds[i].String(), t0, t1, err)
				l.run.observe(kinds[i], t1.Sub(t0), err)
			}
			l.took += time.Since(b0)
		}
	}
}

// gap is one neighbouring-layer pair whose self time must not be negative
// beyond the benchmark's largest bound (a quarter of the outer layer).
type gap struct {
	outer, inner string
	o, i         float64
}

func checkGaps(rep *report, gaps []gap) {
	for _, g := range gaps {
		if g.o < g.i-0.25*g.o {
			rep.check("layer %s (p50 %.1fus) is faster than the %s it calls (p50 %.1fus)", g.outer, g.o, g.inner, g.i)
		}
	}
}

// counterDelta tracks registry counters across a replay.
type counterDelta struct {
	reg    *telemetry.Registry
	names  []string
	before []float64
}

func watch(reg *telemetry.Registry, names ...string) *counterDelta {
	c := &counterDelta{reg: reg, names: names}
	for _, n := range names {
		c.before = append(c.before, counter(reg, n))
	}
	return c
}

func (c *counterDelta) delta(name string) float64 {
	for i, n := range c.names {
		if n == name {
			return counter(c.reg, n) - c.before[i]
		}
	}
	panic("unwatched counter " + name)
}

var walCounters = []string{"dvecap_wal_records_total", "dvecap_wal_appended_bytes_total", "dvecap_snapshots_total"}
var coreCounters = []string{"dvecap_cache_row_hits_total", "dvecap_cache_row_refreshes_total", "dvecap_scan_rounds_total", "dvecap_cache_invalidations_total"}

// replayLog times reading back the journal written after the newest
// snapshot, decoding every record.
func replayLog(dir string) (time.Duration, error) {
	lsns, err := wal.SnapshotLSNs(dir)
	if err != nil || len(lsns) == 0 {
		return 0, fmt.Errorf("no snapshot in %s", dir)
	}
	start := time.Now()
	_, err = wal.Replay(dir, lsns[len(lsns)-1], func(_ uint64, payload []byte) error {
		_, err := repair.DecodeEvent(payload)
		return err
	})
	return time.Since(start), err
}

// ---------------------------------------------------------------------------
// Director workloads

// dirTrace is a director workload's traced run: its deployment, preload
// and recorded stream.
type dirTrace struct {
	dep       *deployment
	preload   []dirEvent
	stream    []dirEvent
	snapEvery int
}

func traceChurn(cfg churnConfig, seed uint64, work string, tr *tracer) (*report, error) {
	in, err := genChurn(cfg, seed)
	if err != nil {
		return nil, err
	}
	return traceDirector(dirTrace{dep: in.dep, preload: in.preload, stream: in.traceStream(cfg, cfg.TraceEvents), snapEvery: cfg.SnapshotEvery}, work, tr)
}

func traceMobility(cfg mobilityConfig, seed uint64, work string, tr *tracer) (*report, error) {
	in, err := genMobility(cfg, seed)
	if err != nil {
		return nil, err
	}
	stream := make([]dirEvent, cfg.TraceEvents)
	for i := range stream {
		stream[i] = in.gen.event()
	}
	// The traced durable layers journal like churn-durable's director.
	return traceDirector(dirTrace{dep: in.dep, preload: in.preload, stream: stream, snapEvery: fullSizes().churn.SnapshotEvery}, work, tr)
}

// traceDirector replays the stream, in lockstep, through HTTP loopback,
// the in-process handler and the durable director (each over a copy of
// one preloaded data directory), three in-memory directors (with the
// registry, without it, and with it but no spans), the planner, and the
// WAL appending each write's journal record.
func traceDirector(t dirTrace, work string, tr *tracer) (*report, error) {
	rep := newReport()
	m := rep.Metrics
	base := work + "/base"
	dcfg := t.dep.config()
	dcfg.SnapshotEvery = t.snapEvery
	{
		c := dcfg
		c.DataDir = base
		d, err := director.New(c)
		if err != nil {
			return nil, err
		}
		if err := preload(directorTarget{d}, t.preload); err != nil {
			return nil, err
		}
		if err := d.Close(); err != nil {
			return nil, err
		}
	}
	durable := func(name string, reg *telemetry.Registry) (*director.Director, error) {
		c := dcfg
		c.DataDir, c.Telemetry = work+"/"+name, reg
		if err := copyDir(base, c.DataDir); err != nil {
			return nil, err
		}
		return director.New(c)
	}
	memory := func(reg *telemetry.Registry) (*director.Director, error) {
		c := dcfg
		c.Telemetry = reg
		d, err := director.New(c)
		if err != nil {
			return nil, err
		}
		return d, preload(directorTarget{d}, t.preload)
	}
	durReg, memReg, plReg := telemetry.NewRegistry(), telemetry.NewRegistry(), telemetry.NewRegistry()
	var dirs [6]*director.Director // http, handler, durable, memory, bare, untraced
	var err error
	for x, name := range []string{"http", "handler", "director"} {
		reg := telemetry.NewRegistry()
		if x == 2 {
			reg = durReg
		}
		if dirs[x], err = durable(name, reg); err != nil {
			return nil, err
		}
	}
	for x, reg := range []*telemetry.Registry{memReg, nil, telemetry.NewRegistry()} {
		if dirs[3+x], err = memory(reg); err != nil {
			return nil, err
		}
	}
	pt, err := newPlannerTarget(t.dep, plReg)
	if err != nil {
		return nil, err
	}
	if err := preload(pt, t.preload); err != nil {
		return nil, err
	}
	w, err := wal.Open(work+"/wal", 0, wal.Options{})
	if err != nil {
		return nil, err
	}
	payloads := make([][]byte, len(t.stream)) // nil for reads, which journal nothing
	kinds := make([]opKind, len(t.stream))
	for i := range t.stream {
		kinds[i] = t.stream[i].Kind
		if je := journalEvent(&t.stream[i]); je != nil {
			if payloads[i], err = je.Encode(); err != nil {
				return nil, err
			}
		}
	}
	lb, err := serve(dirs[0])
	if err != nil {
		return nil, err
	}
	conn := dial(lb.url)
	for i := 0; i < 20; i++ {
		if err := conn.apply(&dirEvent{Kind: opReadStats}, nil); err != nil {
			return nil, err
		}
	}

	on := func(tg target) func(int) func() error {
		return func(i int) func() error { return func() error { return tg.apply(&t.stream[i], nil) } }
	}
	lanes := []*lane{
		{layer: "http", prep: on(conn)},
		{layer: "handler", prep: on(handlerTarget{director.Handler(dirs[1])})},
		{layer: "director", prep: on(directorTarget{dirs[2]})},
		{layer: "director_memory", prep: on(directorTarget{dirs[3]})},
		{layer: "director_bare", prep: on(directorTarget{dirs[4]})},
		{prep: on(directorTarget{dirs[5]})},
		{layer: "planner", prep: on(pt)},
		{layer: "wal", prep: func(i int) func() error {
			if payloads[i] == nil {
				return nil
			}
			return func() error { _, err := w.Append(payloads[i]); return err }
		}},
	}
	var starts [7]layerState
	for x, d := range dirs {
		starts[x] = directorState(d)
	}
	starts[6] = pt.state()
	wc, cc := watch(durReg, walCounters...), watch(memReg, coreCounters...)
	events0 := pt.pl.Stats().Events
	repairN0, repairSum0 := repairHistograms(plReg)
	lockstep(tr, kinds, lanes)

	// Every layer must end where the others did.
	ends := starts
	for x, d := range dirs {
		ends[x] = directorState(d).minus(starts[x])
	}
	ends[6] = pt.state().minus(starts[6])
	for x := range ends {
		name := lanes[x].layer
		if name == "" {
			name = "director_untraced"
		}
		if s := ends[x].diff(ends[0]); s != "" {
			rep.check("layer %s ends in another state than http: %s", name, s)
		}
		if err := lanes[x].run.err; err != nil {
			rep.check("layer %s: %v", name, err)
		}
	}
	if err := lanes[7].run.err; err != nil {
		rep.check("layer wal: %v", err)
	}
	// The planner's own latency histogram must have seen every churn call,
	// and can only have timed part of each.
	pl := &lanes[6].run
	repairN, repairSum := repairHistograms(plReg)
	churnCalls, churnUs := 0, 0.0
	for _, k := range []opKind{opJoin, opLeave, opMove} {
		churnCalls += len(pl.byOp[k])
		churnUs += pl.byOp[k].totalUs()
	}
	if int(repairN-repairN0) != churnCalls || (repairSum-repairSum0)*1e6 > churnUs {
		rep.check("dvecap_repair_duration_seconds saw %v events over %.6fs; the replay made %d calls over %.6fs",
			repairN-repairN0, repairSum-repairSum0, churnCalls, churnUs/1e6)
	}
	events := float64(pt.pl.Stats().Events - events0)
	coreFailures := 0
	if pt.pl.TakeSolveErr() != nil {
		coreFailures++
	}

	// The registry capdirector attaches must render and parse.
	telemetryFailures := 0
	resp, err := conn.c.Get(lb.url + "/metrics")
	if err == nil {
		_, err = telemetry.ParsePrometheus(resp.Body)
		resp.Body.Close()
	}
	if err != nil {
		telemetryFailures++
	}
	conn.close()
	if err := lb.close(); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}

	// The durable director's journal read back, then a checkpoint.
	snapFailures := 0
	replayTook, err := replayLog(work + "/director")
	if err != nil {
		rep.check("journal replay: %v", err)
	}
	c0 := time.Now()
	if _, err := dirs[2].Checkpoint(); err != nil {
		snapFailures++
	}
	checkpoint := time.Since(c0)
	snapMB, err := newestSnapshotMB(work + "/director")
	if err != nil {
		snapFailures++
	}
	writes := 0
	for _, p := range payloads {
		if p != nil {
			writes++
		}
	}
	m.set("wal.records_per_write", wc.delta("dvecap_wal_records_total")/float64(writes), "count")
	m.set("wal.bytes_per_write", wc.delta("dvecap_wal_appended_bytes_total")/float64(writes), "B")
	m.set("wal.replay_ms", replayTook.Seconds()*1e3, "ms")
	m.set("snapshot.checkpoint_ms", checkpoint.Seconds()*1e3, "ms")
	m.set("snapshot.mb", snapMB, "MB")
	m.set("snapshot.count", wc.delta("dvecap_snapshots_total"), "count")
	for _, d := range dirs[:3] {
		if err := d.Close(); err != nil {
			return nil, err
		}
	}
	hits, refreshes := cc.delta("dvecap_cache_row_hits_total"), cc.delta("dvecap_cache_row_refreshes_total")
	scans, invalidations := cc.delta("dvecap_scan_rounds_total"), cc.delta("dvecap_cache_invalidations_total")

	h, hd, dd, mem, bare, un, wl := &lanes[0].run, &lanes[1].run, &lanes[2].run, &lanes[3].run, &lanes[4].run, &lanes[5].run, &lanes[7].run
	checkGaps(rep, []gap{
		{"http", "handler", h.writes.p50(), hd.writes.p50()},
		{"handler", "director", hd.writes.p50(), dd.writes.p50()},
		{"durable director", "in-memory director", dd.writes.p50(), mem.writes.p50()},
		{"in-memory director", "planner", mem.writes.p50(), pl.writes.p50()},
	})
	m.set("http.write_p50_us", h.writes.p50(), "us")
	m.set("http.write_p99_us", h.writes.p99(), "us")
	m.set("http.read_p50_us", h.reads.p50(), "us")
	m.set("http.self_write_p50_us", h.writes.p50()-hd.writes.p50(), "us")
	m.set("handler.write_p50_us", hd.writes.p50(), "us")
	m.set("handler.write_p99_us", hd.writes.p99(), "us")
	m.set("handler.self_write_p50_us", hd.writes.p50()-dd.writes.p50(), "us")
	m.set("director.journal_p50_us", dd.writes.p50()-mem.writes.p50(), "us")
	m.set("director.write_p50_us", mem.writes.p50(), "us")
	m.set("director.write_p99_us", mem.writes.p99(), "us")
	m.set("director.read_p50_us", mem.reads.p50(), "us")
	m.set("director.reassign_ms", mem.resolves.p50()/1e3, "ms")
	m.set("director.self_write_p50_us", mem.writes.p50()-pl.writes.p50(), "us")
	m.set("planner.move_p50_us", pl.byOp[opMove].p50(), "us")
	m.set("planner.move_p99_us", pl.byOp[opMove].p99(), "us")
	m.set("planner.join_p50_us", pl.byOp[opJoin].p50(), "us")
	m.set("planner.leave_p50_us", pl.byOp[opLeave].p50(), "us")
	m.set("planner.adjacency_p50_us", pl.byOp[opAdjAdd].p50(), "us")
	m.set("planner.handoffs_per_event", ratio(float64(ends[6].Handoffs), events), "ratio")
	m.set("planner.contact_switches_per_event", ratio(float64(ends[6].Switches), events), "ratio")
	m.set("core.full_solve_ms", pl.resolves.p50()/1e3, "ms")
	m.set("core.cache_hit_ratio", ratio(hits, hits+refreshes), "ratio")
	m.set("core.scan_rounds_per_event", ratio(scans, events), "ratio")
	m.set("core.invalidations_per_event", ratio(invalidations, events), "ratio")
	m.set("wal.append_p50_us", wl.writes.p50(), "us")
	m.set("wal.append_p99_us", wl.writes.p99(), "us")
	m.set("telemetry.overhead_pct", 100*(ratio(lanes[3].took.Seconds(), lanes[4].took.Seconds())-1), "%")
	m.set("trace.overhead_pct", 100*(ratio(lanes[3].took.Seconds(), lanes[5].took.Seconds())-1), "%")
	m.set("http.failures", float64(h.failures), "count")
	m.set("handler.failures", float64(hd.failures), "count")
	m.set("director.failures", float64(dd.failures+mem.failures+bare.failures+un.failures), "count")
	m.set("planner.failures", float64(pl.failures), "count")
	m.set("core.failures", float64(coreFailures), "count")
	m.set("wal.failures", float64(wl.failures), "count")
	m.set("snapshot.failures", float64(snapFailures), "count")
	m.set("telemetry.failures", float64(telemetryFailures), "count")
	rep.Attempted = 7*len(t.stream) + writes
	rep.Failed = sumFailures(m)
	rep.Extra.set("trace.events", float64(len(t.stream)), "count")
	return rep, nil
}

// sumFailures adds up the per-layer failure counts.
func sumFailures(m metrics) int {
	n := 0
	for name, v := range m {
		if strings.HasSuffix(name, ".failures") {
			n += int(v.Value)
		}
	}
	return n
}

// repairHistograms sums the planner's per-type churn latency histograms
// (join, leave, move).
func repairHistograms(reg *telemetry.Registry) (n, sum float64) {
	for _, typ := range []string{"join", "leave", "move"} {
		c, s := histogram(reg, "dvecap_repair_duration_seconds", "type", typ)
		n, sum = n+c, sum+s
	}
	return n, sum
}

// ---------------------------------------------------------------------------
// session-batch

// batchJournal is the record the session journals for a call.
func batchJournal(e *batchEvent) *repair.Event {
	zones := make([]string, len(e.Zones))
	for x, z := range e.Zones {
		zones[x] = zoneID(z)
	}
	switch e.Kind {
	case opMove:
		return &repair.Event{Op: repair.OpMoveBatch, IDs: e.IDs, Zones: zones}
	case opJoin:
		return &repair.Event{Op: repair.OpJoinBatch, IDs: e.IDs, Zones: zones, RTs: e.Mbps, Rows: e.Rows}
	case opLeave:
		return &repair.Event{Op: repair.OpLeaveBatch, IDs: e.IDs}
	}
	return &repair.Event{Op: repair.OpResolve}
}

// traceBatch replays the session stream, in lockstep, through the
// durable session, two in-memory sessions (one recording no spans), the
// planner's batch calls and the WAL appending each call's journal record.
// (Four 100k-client copies are what the machine's memory allows; the
// telemetry overhead is measured on the director workloads.)
func traceBatch(cfg batchConfig, seed uint64, work string, tr *tracer) (*report, error) {
	rep := newReport()
	m := rep.Metrics
	in, err := genBatch(cfg, seed)
	if err != nil {
		return nil, err
	}
	var stream []batchEvent
	for i := 0; i < cfg.TraceTicks; i++ {
		stream = append(stream, in.gen.tick()...)
	}
	kinds := make([]opKind, len(stream))
	payloads := make([][]byte, len(stream))
	for i := range stream {
		kinds[i] = stream[i].Kind
		if payloads[i], err = batchJournal(&stream[i]).Encode(); err != nil {
			return nil, err
		}
	}
	durReg, memReg := telemetry.NewRegistry(), telemetry.NewRegistry()
	dir := work + "/session"
	var sessions [3]*dvecap.ClusterSession // durable, memory, untraced
	for x, r := range []*telemetry.Registry{durReg, memReg, telemetry.NewRegistry()} {
		d := ""
		if x == 0 {
			d = dir
		}
		if sessions[x], err = openSession(in, cfg, d, r); err != nil {
			return nil, err
		}
	}
	pt, err := newBatchPlanner(in, cfg, telemetry.NewRegistry())
	if err != nil {
		return nil, err
	}
	w, err := wal.Open(work+"/wal", 0, wal.Options{})
	if err != nil {
		return nil, err
	}
	on := func(c batchCaller) func(int) func() error {
		return func(i int) func() error { return c.prepare(&stream[i]) }
	}
	lanes := []*lane{
		{layer: "session", prep: on(sessionCaller{sessions[0]})},
		{layer: "session_memory", prep: on(sessionCaller{sessions[1]})},
		{prep: on(sessionCaller{sessions[2]})},
		{layer: "planner", prep: on(pt)},
		{layer: "wal", prep: func(i int) func() error {
			return func() error { _, err := w.Append(payloads[i]); return err }
		}},
	}
	var starts [4]layerState
	for x, s := range sessions {
		if starts[x], err = sessionState(s); err != nil {
			return nil, err
		}
	}
	starts[3] = pt.state()
	wc, cc := watch(durReg, walCounters...), watch(memReg, coreCounters...)
	events0 := pt.pl.Stats().Events
	lockstep(tr, kinds, lanes)

	ends := starts
	for x, s := range sessions {
		end, err := sessionState(s)
		if err != nil {
			return nil, err
		}
		ends[x] = end.minus(starts[x])
	}
	ends[3] = pt.state().minus(starts[3])
	for x := range ends {
		name := lanes[x].layer
		if name == "" {
			name = "session_untraced"
		}
		if s := ends[x].diff(ends[0]); s != "" {
			rep.check("layer %s ends in another state than session: %s", name, s)
		}
		if err := lanes[x].run.err; err != nil {
			rep.check("layer %s: %v", name, err)
		}
	}
	if err := lanes[4].run.err; err != nil {
		rep.check("layer wal: %v", err)
	}
	events := float64(pt.pl.Stats().Events - events0)
	coreFailures := 0
	if pt.pl.TakeSolveErr() != nil {
		coreFailures++
	}
	if err := w.Close(); err != nil {
		return nil, err
	}

	// The durable session's journal read back, then a checkpoint.
	snapFailures := 0
	replayTook, err := replayLog(dir)
	if err != nil {
		rep.check("journal replay: %v", err)
	}
	c0 := time.Now()
	if err := sessions[0].Checkpoint(); err != nil {
		snapFailures++
	}
	checkpoint := time.Since(c0)
	snapMB, err := newestSnapshotMB(dir)
	if err != nil {
		snapFailures++
	}
	hits, refreshes := cc.delta("dvecap_cache_row_hits_total"), cc.delta("dvecap_cache_row_refreshes_total")
	scans, invalidations := cc.delta("dvecap_scan_rounds_total"), cc.delta("dvecap_cache_invalidations_total")

	dur, mem, un, pl, wl := &lanes[0].run, &lanes[1].run, &lanes[2].run, &lanes[3].run, &lanes[4].run
	checkGaps(rep, []gap{
		{"durable session", "in-memory session", dur.writes.p50(), mem.writes.p50()},
		{"in-memory session", "planner", mem.writes.p50(), pl.writes.p50()},
	})
	m.set("wal.records_per_write", wc.delta("dvecap_wal_records_total")/float64(len(stream)), "count")
	m.set("wal.bytes_per_write", wc.delta("dvecap_wal_appended_bytes_total")/float64(len(stream)), "B")
	m.set("wal.replay_ms", replayTook.Seconds()*1e3, "ms")
	m.set("snapshot.checkpoint_ms", checkpoint.Seconds()*1e3, "ms")
	m.set("snapshot.mb", snapMB, "MB")
	m.set("snapshot.count", wc.delta("dvecap_snapshots_total"), "count")
	m.set("session.write_p50_us", dur.writes.p50(), "us")
	m.set("session.write_p99_us", dur.writes.p99(), "us")
	m.set("session.journal_p50_us", dur.writes.p50()-mem.writes.p50(), "us")
	m.set("session.resolve_ms", dur.resolves.p50()/1e3, "ms")
	m.set("session.self_write_p50_us", mem.writes.p50()-pl.writes.p50(), "us")
	m.set("planner.move_p50_us", pl.byOp[opMove].p50(), "us")
	m.set("planner.move_p99_us", pl.byOp[opMove].p99(), "us")
	m.set("planner.join_p50_us", pl.byOp[opJoin].p50(), "us")
	m.set("planner.leave_p50_us", pl.byOp[opLeave].p50(), "us")
	m.set("planner.handoffs_per_event", ratio(float64(ends[3].Handoffs), events), "ratio")
	m.set("planner.contact_switches_per_event", ratio(float64(ends[3].Switches), events), "ratio")
	m.set("core.full_solve_ms", pl.resolves.p50()/1e3, "ms")
	m.set("core.cache_hit_ratio", ratio(hits, hits+refreshes), "ratio")
	m.set("core.scan_rounds_per_event", ratio(scans, events), "ratio")
	m.set("core.invalidations_per_event", ratio(invalidations, events), "ratio")
	m.set("wal.append_p50_us", wl.writes.p50(), "us")
	m.set("wal.append_p99_us", wl.writes.p99(), "us")
	m.set("trace.overhead_pct", 100*(ratio(lanes[1].took.Seconds(), lanes[2].took.Seconds())-1), "%")
	m.set("session.failures", float64(dur.failures+mem.failures+un.failures), "count")
	m.set("planner.failures", float64(pl.failures), "count")
	m.set("core.failures", float64(coreFailures), "count")
	m.set("wal.failures", float64(wl.failures), "count")
	m.set("snapshot.failures", float64(snapFailures), "count")
	rep.Attempted = 5 * len(stream)
	rep.Failed = sumFailures(m)
	rep.Extra.set("trace.events", float64(len(stream)), "count")
	return rep, nil
}
