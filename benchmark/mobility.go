package main

import (
	"fmt"
	"runtime"
	"time"

	"dvecap/internal/director"
	"dvecap/telemetry"
)

// mobilitySetup builds the mobility-hotspot director the way capdirector
// ships it (in memory, telemetry registry attached), joins every avatar in
// its current zone and runs the initial solve.
func mobilitySetup(cfg mobilityConfig, seed uint64, reg *telemetry.Registry) (*mobilityInputs, *director.Director, time.Duration, error) {
	start := time.Now()
	in, err := genMobility(cfg, seed)
	if err != nil {
		return nil, nil, 0, err
	}
	dcfg := in.dep.config()
	dcfg.Telemetry = reg
	d, err := director.New(dcfg)
	if err != nil {
		return nil, nil, 0, err
	}
	if err := preload(directorTarget{d}, in.preload); err != nil {
		return nil, nil, 0, err
	}
	return in, d, time.Since(start), nil
}

// quality takes a deterministic stream's quality figures over its first
// horizon writes: the mean pQoS of the stats reads, and at the horizon
// the traffic cut and the zone handoffs since the start.
type quality struct {
	horizon, writes int
	h0              int
	pqos            []float64
	done            bool
	cut             float64
	handoffs        int
}

func (q *quality) observe(e *dirEvent, st *director.Stats) {
	switch {
	case q.done:
	case e.Kind.isWrite():
		q.writes++
	case e.Kind == opReadStats:
		q.pqos = append(q.pqos, st.PQoS)
		if q.writes >= q.horizon {
			q.done, q.cut, q.handoffs = true, st.TrafficCutMbps, st.ZoneHandoffs-q.h0
		}
	}
}

func (q *quality) same(o *quality) bool {
	return q.done && o.done && mean(q.pqos) == mean(o.pqos) && q.cut == o.cut && q.handoffs == o.handoffs
}

// runMobility is the mobility-hotspot end-to-end run: one HTTP connection
// in a closed loop replaying the world's crossings in seed order.
func runMobility(cfg mobilityConfig, seed uint64, seconds float64, work string) (*report, error) {
	if cfg.Horizon%cfg.PQoSEvery != 0 {
		return nil, fmt.Errorf("horizon %d is not a multiple of the pQoS cadence %d", cfg.Horizon, cfg.PQoSEvery)
	}
	rep := newReport()
	pr, err := newProbe()
	if err != nil {
		return nil, err
	}
	defer pr.close()
	var (
		in  *mobilityInputs
		d   *director.Director
		set setups
	)
	if err := set.run(pr, func() (took time.Duration, err error) {
		in, d, took, err = mobilitySetup(cfg, seed, telemetry.NewRegistry())
		return took, err
	}); err != nil {
		return nil, err
	}
	lb, err := serve(d)
	if err != nil {
		return nil, err
	}
	conn := dial(lb.url)
	var st director.Stats
	for i := 0; i < 20; i++ {
		if err := conn.apply(&dirEvent{Kind: opReadStats}, &st); err != nil {
			return nil, err
		}
	}
	q := &quality{horizon: cfg.Horizon, h0: st.ZoneHandoffs}

	var r loopStats
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for writes := 0; !q.done || time.Now().Before(deadline) || writes < minWrites; {
		if r.ops%probeEvery == 0 {
			if err := pr.sample(&r.tl, start); err != nil {
				return nil, err
			}
		}
		e := in.gen.event()
		t0 := time.Now()
		err := conn.apply(&e, &st)
		el := time.Since(t0)
		r.ops++
		if err != nil {
			r.fail(err)
			if r.failed > 100 {
				break
			}
			continue
		}
		r.tl.add(start, t0, el, classOf(e.Kind), 1)
		if e.Kind.isWrite() {
			writes++
		}
		q.observe(&e, &st)
	}
	elapsed := time.Since(start)
	rep.Attempted, rep.Failed = r.ops, r.failed
	if r.err != nil {
		rep.check("request failed: %v", r.err)
	}
	checkAPI(rep, conn, cfg.Avatars)
	conn.close()
	if err := lb.close(); err != nil {
		return nil, err
	}
	rep.closedLoop(r.tl, elapsed, cfg.NetRefUs, mean(q.pqos), 1000*float64(q.handoffs)/float64(q.horizon))
	reads := r.tl.of(classRead)
	r.tl = nil // the heap figure is the program's, not the benchmark's
	rep.Metrics.set("heap_mb", heapMB(), "MB")
	runtime.KeepAlive(d)

	// The same seed must reproduce the quality figures bit for bit: replay
	// the horizon on a second setup through the director's methods.
	var (
		again *mobilityInputs
		d2    *director.Director
	)
	if err := set.run(pr, func() (took time.Duration, err error) {
		again, d2, took, err = mobilitySetup(cfg, seed, telemetry.NewRegistry())
		return took, err
	}); err != nil {
		return nil, err
	}
	q2 := &quality{horizon: cfg.Horizon, h0: d2.Stats().ZoneHandoffs}
	for !q2.done {
		e := again.gen.event()
		if err := (directorTarget{d2}).apply(&e, &st); err != nil {
			rep.check("reproduction: %v", err)
			break
		}
		q2.observe(&e, &st)
	}
	if !q.same(q2) {
		rep.check("same seed gave pqos %v/%v, cut %v/%v, handoffs %d/%d",
			mean(q.pqos), mean(q2.pqos), q.cut, q2.cut, q.handoffs, q2.handoffs)
	}
	if err := set.run(pr, func() (time.Duration, error) {
		_, _, took, err := mobilitySetup(cfg, seed, telemetry.NewRegistry())
		return took, err
	}); err != nil {
		return nil, err
	}
	set.report(rep)
	x := rep.Extra
	x.set("traffic_cut_mbps", q.cut, "Mbps")
	x.set("read_p50_us", reads.p50(), "us")
	x.set("read_p99_us", reads.p99(), "us")
	x.set("error_rate", ratio(float64(r.failed), float64(r.ops)), "ratio")
	return rep, nil
}
