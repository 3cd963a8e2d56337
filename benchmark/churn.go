package main

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"dvecap/internal/director"
	"dvecap/telemetry"
)

// churnSetup builds the churn-durable director: topology, a durable
// director journaling to dir, the preload joins and the initial solve.
func churnSetup(cfg churnConfig, seed uint64, dir string, reg *telemetry.Registry) (*churnInputs, *director.Director, time.Duration, error) {
	start := time.Now()
	in, err := genChurn(cfg, seed)
	if err != nil {
		return nil, nil, 0, err
	}
	dcfg := in.dep.config()
	dcfg.DataDir = dir
	dcfg.SnapshotEvery = cfg.SnapshotEvery
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

// runChurn is the churn-durable end-to-end run: two HTTP connections in a
// closed loop against a durable director, each over its own client pool.
func runChurn(cfg churnConfig, seed uint64, seconds float64, work string) (*report, error) {
	rep := newReport()
	pr, err := newProbe()
	if err != nil {
		return nil, err
	}
	defer pr.close()
	dir := work + "/data"
	var (
		in  *churnInputs
		d   *director.Director
		set setups
	)
	if err := set.run(pr, func() (took time.Duration, err error) {
		in, d, took, err = churnSetup(cfg, seed, dir, telemetry.NewRegistry())
		return took, err
	}); err != nil {
		return nil, err
	}
	lb, err := serve(d)
	if err != nil {
		return nil, err
	}
	conns := make([]*httpConn, cfg.Conns)
	for c := range conns {
		conns[c] = dial(lb.url)
		for i := 0; i < 20; i++ { // open the connection and warm both ends
			if err := conns[c].apply(&dirEvent{Kind: opReadStats}, nil); err != nil {
				return nil, err
			}
		}
	}
	before := d.Stats()

	var (
		writeCount atomic.Int64
		mu         sync.Mutex
		pqos       []float64
		wg         sync.WaitGroup
	)
	res := make([]loopStats, cfg.Conns)
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for c := range conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r, gen, conn := &res[c], in.gens[c], conns[c]
			reassign := false
			for time.Now().Before(deadline) || writeCount.Load() < minWrites {
				if c == 0 && r.ops%probeEvery == 0 { // one connection reads the probe
					if err := pr.sample(&r.tl, start); err != nil {
						r.fail(err)
						return
					}
				}
				e := dirEvent{Kind: opReassign}
				if !reassign {
					e = gen.event()
				}
				reassign = false
				t0 := time.Now()
				err := conn.apply(&e, nil)
				el := time.Since(t0)
				r.ops++
				if err != nil {
					r.fail(err)
					if r.failed > 100 {
						return
					}
					continue
				}
				c := classOf(e.Kind)
				r.tl.add(start, t0, el, c, 1)
				if c == classRead {
					continue
				}
				n := writeCount.Add(1)
				if n%int64(cfg.ReassignEvery) == 0 {
					reassign = true
				}
				if n%int64(cfg.PQoSEvery) == 0 {
					p := d.Stats().PQoS
					mu.Lock()
					pqos = append(pqos, p)
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all loopStats
	for c := range res {
		all.tl = append(all.tl, res[c].tl...)
		all.ops += res[c].ops
		all.failed += res[c].failed
		if all.err == nil {
			all.err = res[c].err
		}
	}
	rep.Attempted, rep.Failed = all.ops, all.failed
	if all.err != nil {
		rep.check("request failed: %v", all.err)
	}
	live := 0
	for _, g := range in.gens {
		live += len(g.pool)
	}
	checkAPI(rep, conns[0], live)
	for _, c := range conns {
		c.close()
	}
	if err := lb.close(); err != nil {
		return nil, err
	}
	after := d.Stats()
	writes := 0 // mutations and re-solves
	for _, r := range all.tl {
		if r.class != classRead {
			writes++
		}
	}
	rep.closedLoop(all.tl, elapsed, cfg.NetRefUs, mean(pqos), 1000*float64(after.ZoneHandoffs-before.ZoneHandoffs)/float64(writes))
	reads := all.tl.of(classRead)
	all.tl, res = nil, nil // the heap figure is the program's, not the benchmark's
	rep.Metrics.set("heap_mb", heapMB(), "MB")

	// Recovery: checkpoint, journal a fixed tail, then reopen a copy of the
	// data directory and check it holds the same state.
	if _, err := d.Checkpoint(); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.RecoverTail; i++ {
		e := in.gens[i%len(in.gens)].event()
		if err := (directorTarget{d}).apply(&e, nil); err != nil {
			rep.check("recovery tail: %v", err)
		}
	}
	dcfg := in.dep.config()
	dcfg.DataDir, dcfg.SnapshotEvery = dir, cfg.SnapshotEvery
	recoverS, err := checkDirectorRecovery(rep, d, dcfg)
	if err != nil {
		return nil, err
	}
	if err := d.Close(); err != nil {
		return nil, err
	}

	for i := 2; i <= 3; i++ {
		sdir := fmt.Sprintf("%s/setup%d", work, i)
		var sd *director.Director
		if err := set.run(pr, func() (took time.Duration, err error) {
			_, sd, took, err = churnSetup(cfg, seed, sdir, telemetry.NewRegistry())
			return took, err
		}); err != nil {
			return nil, err
		}
		if err := sd.Close(); err != nil {
			return nil, err
		}
		os.RemoveAll(sdir)
	}

	set.report(rep)
	x := rep.Extra
	x.set("read_p50_us", reads.p50(), "us")
	x.set("read_p99_us", reads.p99(), "us")
	x.set("recover_s", recoverS, "s")
	x.set("error_rate", ratio(float64(all.failed), float64(all.ops)), "ratio")
	x.set("read_samples", float64(len(reads)), "count")
	return rep, nil
}

// checkDirectorRecovery reopens a copy of a durable director's data
// directory (cfg.DataDir, reopened with cfg) and checks clients,
// with_qos, pQoS and every zone's host. It returns the reopen time in
// seconds.
func checkDirectorRecovery(rep *report, d *director.Director, cfg director.Config) (float64, error) {
	want := directorState(d)
	cp := cfg.DataDir + "-recovered"
	if err := copyDir(cfg.DataDir, cp); err != nil {
		return 0, err
	}
	defer os.RemoveAll(cp)
	cfg.DataDir = cp
	start := time.Now()
	r, err := director.New(cfg)
	if err != nil {
		return 0, err
	}
	took := time.Since(start).Seconds()
	got := directorState(r)
	want.Handoffs, want.Switches, got.Handoffs, got.Switches = 0, 0, 0, 0
	if s := want.diff(got); s != "" {
		rep.check("recovered director differs: %s", s)
	}
	return took, r.Close()
}
