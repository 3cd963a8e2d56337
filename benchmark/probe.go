package main

import (
	"io"
	"net/http"
	"runtime"
	"sort"
	"time"
)

// The machines the benchmark runs on are shared, and their speed shifts
// by half or more from minute to minute as other tenants come and go: on
// a 2-vCPU Xeon VM the mobility-hotspot write p50 read anywhere from 97
// to 179 µs over half an hour of identical runs. A probe times fixed work
// that belongs to no layer of the program, interleaved with the workload,
// and the timed figures are scaled by how much slower than its reference
// the probe ran at the same moment. Over those runs the write p50 stayed
// between 1.65 and 1.93 times the net probe's p50.
//
// Two probes, since different figures slow with different parts of the
// machine:
//   - net: one HTTP request over a kept-alive loopback connection to a
//     handler that answers a fixed JSON body, decoded by the client. It
//     scales write latency and throughput.
//   - cpu: sorting a copy of a fixed slice of 1024 floats. It scales
//     re-solves and set-ups, which are pure computation.

// cpuRefUs is the cpu probe's reading on the reference machine (the
// 2-vCPU Xeon VM above, at its usual speed). The net probe's reading
// depends on the loop around it (an idle runtime answers it more slowly),
// so each workload sets its own reference, NetRefUs.
const cpuRefUs = 100

// probeEvery is how many requests an HTTP loop sends between probe
// readings; session-batch reads the probes once a tick.
const probeEvery = 20

var probeBody = []byte(`{"clients":20000,"with_qos":17000,"pqos":0.85,"servers":50,"zones":400}`)

// probe times the fixed work. Its samples go into the caller's timeline
// as classNetProbe and classCPUProbe records, so that they fall into the
// same windows as the operations they scale.
type probe struct {
	lb      *loopback
	conn    *httpConn
	vals    []float64
	scratch []float64
}

func newProbe() (*probe, error) {
	lb, err := serveHandler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.Write(probeBody)
	}))
	if err != nil {
		return nil, err
	}
	p := &probe{lb: lb, conn: dial(lb.url), vals: make([]float64, 1024), scratch: make([]float64, 1024)}
	x := uint64(88172645463325252)
	for i := range p.vals {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		p.vals[i] = float64(x >> 11)
	}
	for i := 0; i < 20; i++ { // open the connection and warm both ends
		if _, err := p.net(); err != nil {
			p.close()
			return nil, err
		}
		p.cpu()
	}
	return p, nil
}

// net times one request of the net probe.
func (p *probe) net() (time.Duration, error) {
	t0 := time.Now()
	var out map[string]any
	err := p.conn.do(http.MethodPost, "/v1/clients/probe/move", []byte(`{"zone":17}`), http.StatusOK, &out)
	return time.Since(t0), err
}

// cpu times one run of the cpu probe.
func (p *probe) cpu() time.Duration {
	t0 := time.Now()
	copy(p.scratch, p.vals)
	sort.Float64s(p.scratch)
	return time.Since(t0)
}

// sample adds one reading of each probe to tl.
func (p *probe) sample(tl *timeline, loopStart time.Time) error {
	t0 := time.Now()
	el, err := p.net()
	if err != nil {
		return err
	}
	tl.add(loopStart, t0, el, classNetProbe, 0)
	t0 = time.Now()
	tl.add(loopStart, t0, p.cpu(), classCPUProbe, 0)
	return nil
}

// setup runs one set-up and returns its time in seconds, raw and scaled by
// the cpu probe's p50 over 25 readings just before and 25 just after it.
// The readings are taken as in a loop (each after a net probe), since a
// warm cache reads the cpu probe faster, and on a collected heap, since a
// collection running beside them would slow them. The set-up starts on a
// collected heap too, so that it does not pay for earlier garbage.
func (p *probe) setup(f func() (time.Duration, error)) (raw, scaled float64, err error) {
	var around timeline
	runtime.GC()
	t0 := time.Now()
	for i := 0; i < 25; i++ {
		if err := p.sample(&around, t0); err != nil {
			return 0, 0, err
		}
	}
	took, err := f()
	if err != nil {
		return 0, 0, err
	}
	runtime.GC()
	for i := 0; i < 25; i++ {
		if err := p.sample(&around, t0); err != nil {
			return 0, 0, err
		}
	}
	return took.Seconds(), took.Seconds() * cpuRefUs / around.of(classCPUProbe).p50(), nil
}

// close stops the probe's server and waits for it.
func (p *probe) close() error {
	p.conn.close()
	return p.lb.close()
}

// setups records a run's set-ups: setup_s is the median of the scaled
// times, setup_raw_s that of the raw ones.
type setups struct{ raw, scaled []float64 }

func (s *setups) run(p *probe, f func() (time.Duration, error)) error {
	raw, scaled, err := p.setup(f)
	if err != nil {
		return err
	}
	s.raw, s.scaled = append(s.raw, raw), append(s.scaled, scaled)
	return nil
}

func (s *setups) report(rep *report) {
	rep.Metrics.set("setup_s", median(s.scaled), "s")
	rep.Extra.set("setup_raw_s", median(s.raw), "s")
}
