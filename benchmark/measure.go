package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"dvecap/telemetry"
)

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to figures.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// samples collects latencies in nanoseconds.
type samples []int64

func (s *samples) add(d time.Duration) { *s = append(*s, int64(d)) }

// quantile returns the q-quantile by nearest rank, in microseconds. With
// n samples the 0.99 quantile leaves floor(n/100) samples above it, so
// 1000 samples keep 10 beyond the reported p99. Empty sets read 0.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append([]int64(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	k := int(math.Ceil(q*float64(len(c)))) - 1
	if k < 0 {
		k = 0
	}
	return float64(c[k]) / 1e3
}

func (s samples) p50() float64 { return s.quantile(0.50) }
func (s samples) p99() float64 { return s.quantile(0.99) }

// totalUs is the summed latency in microseconds.
func (s samples) totalUs() float64 {
	var t int64
	for _, v := range s {
		t += v
	}
	return float64(t) / 1e3
}

// opClass sorts a closed loop's operations for reporting.
type opClass uint8

const (
	classWrite opClass = iota
	classRead
	classResolve
	classNetProbe // a probe reading (see probe.go), counting no operation
	classCPUProbe
)

// opRecord is one completed operation: when it ended (since the loop
// started), how long it took, and how many operations it counts for (a
// batch call counts its clients).
type opRecord struct {
	end, lat int64
	class    opClass
	n        int32
}

// timeline is a closed loop's completed operations.
type timeline []opRecord

func (tl *timeline) add(loopStart, t0 time.Time, lat time.Duration, c opClass, n int) {
	*tl = append(*tl, opRecord{end: int64(t0.Add(lat).Sub(loopStart)), lat: int64(lat), class: c, n: int32(n)})
}

// of returns the latencies of one class.
func (tl timeline) of(c opClass) samples {
	var s samples
	for _, r := range tl {
		if r.class == c {
			s = append(s, r.lat)
		}
	}
	return s
}

// scaledFigures are a closed loop's timed figures scaled by the probes
// (see probe.go).
type scaledFigures struct {
	writeP50, writeP99, opsPerSec, resolveMs float64
	windows                                  int
}

// scaled splits the loop's span into equal time windows, as many as keep
// 250 writes in each (at most 20). In each window it scales the write p50
// and the throughput by the net probe's p50 in that window over its
// reference, and each re-solve by the cpu probe's. A window without a
// probe reading uses the whole run's. Each figure is the median over
// windows (over re-solves for resolveMs), so that a disturbance the
// probes miss moves it only if it lasts half the run. Throughput leaves
// the time spent in the probes out of the window (on churn-durable only
// one of its two connections pauses for them, so there it reads a little
// high). The write p99 is the
// whole run's, scaled by the whole run's net probe, so that 1000 writes
// leave 10 samples beyond it.
func (tl timeline) scaled(span time.Duration, netRefUs float64) scaledFigures {
	w := len(tl.of(classWrite)) / 250
	if w < 1 {
		w = 1
	}
	if w > 20 {
		w = 20
	}
	width := int64(span) / int64(w)
	parts := make([]timeline, w)
	for _, r := range tl {
		i := int(r.end / width)
		if i >= w {
			i = w - 1
		}
		parts[i] = append(parts[i], r)
	}
	netAll, cpuAll := tl.of(classNetProbe).p50(), tl.of(classCPUProbe).p50()
	var p50s, ops, resolves []float64
	for _, p := range parts {
		net, cpu := p.of(classNetProbe).p50(), p.of(classCPUProbe).p50()
		if net == 0 {
			net = netAll
		}
		if cpu == 0 {
			cpu = cpuAll
		}
		if ws := p.of(classWrite); len(ws) > 0 {
			p50s = append(p50s, ws.p50()*netRefUs/net)
		}
		n, busy := 0, width
		for _, r := range p {
			n += int(r.n)
			if r.class == classNetProbe || r.class == classCPUProbe {
				busy -= r.lat
			}
		}
		ops = append(ops, float64(n)/(float64(busy)/1e9)*net/netRefUs)
		for _, lat := range p.of(classResolve) {
			resolves = append(resolves, float64(lat)/1e6*cpuRefUs/cpu)
		}
	}
	p99 := tl.of(classWrite).p99() * netRefUs / netAll
	return scaledFigures{median(p50s), p99, median(ops), median(resolves), w}
}

// median of a float slice (0 when empty).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t / float64(len(v))
}

// ratio divides, reading 0 for an empty denominator.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// heapMB forces a collection and reports the live Go heap in MB.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// span is one timed call into a layer. Event is the index of the stream
// event that caused it, which every layer's span of that event shares.
type span struct {
	Event int    `json:"event"`
	Layer string `json:"layer"`
	Op    string `json:"op"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	Err   string `json:"err,omitempty"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) record(event int, layer, op string, start, end time.Time, err error) {
	s := span{Event: event, Layer: layer, Op: op, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
	if err != nil {
		s.Err = err.Error()
	}
	t.spans = append(t.spans, s)
}

// writeJSONL writes the spans as JSON lines.
func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// counter reads a registry counter (0 when the series was never touched).
func counter(reg *telemetry.Registry, name string, labels ...string) float64 {
	return float64(reg.Counter(name, "", labels...).Value())
}

// histogram reads a registry histogram's observation count and sum.
func histogram(reg *telemetry.Registry, name string, labels ...string) (n, sum float64) {
	h := reg.Histogram(name, "", nil, labels...)
	return float64(h.Count()), h.Sum()
}

// copyDir copies a flat data directory (WAL segments and snapshots).
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// newestSnapshotMB is the size of the newest snapshot file in dir, in MB.
func newestSnapshotMB(dir string) (float64, error) {
	names, err := filepath.Glob(filepath.Join(dir, "snap-*.json"))
	if err != nil || len(names) == 0 {
		return 0, fmt.Errorf("no snapshot in %s", dir)
	}
	sort.Strings(names)
	fi, err := os.Stat(names[len(names)-1])
	if err != nil {
		return 0, err
	}
	return float64(fi.Size()) / 1e6, nil
}

// classOf sorts a director request for reporting.
func classOf(k opKind) opClass {
	switch {
	case k == opReassign:
		return classResolve
	case k.isWrite():
		return classWrite
	}
	return classRead
}

// closedLoop sets the end-to-end metrics every workload reports from its
// closed loop (setup_s and heap_mb come from outside the loop): the timed
// ones scaled by the probes, and their raw whole-run figures as extras.
func (rep *report) closedLoop(tl timeline, span time.Duration, netRefUs, pqos, handoffsPerKop float64) {
	f := tl.scaled(span, netRefUs)
	m := rep.Metrics
	m.set("write_p50_us", f.writeP50, "us")
	m.set("ops_s", f.opsPerSec, "ops/s")
	m.set("resolve_ms", f.resolveMs, "ms")
	m.set("pqos", pqos, "ratio")
	m.set("handoffs_per_kop", handoffsPerKop, "count")
	writes, resolves := tl.of(classWrite), tl.of(classResolve)
	net, cpu := tl.of(classNetProbe), tl.of(classCPUProbe)
	n := 0
	for _, r := range tl {
		n += int(r.n)
	}
	x := rep.Extra
	x.set("write_p99_us", f.writeP99, "us")
	x.set("write_p50_raw_us", writes.p50(), "us")
	x.set("ops_raw_s", float64(n)/(span.Seconds()-(net.totalUs()+cpu.totalUs())/1e6), "ops/s")
	x.set("resolve_raw_ms", resolves.p50()/1e3, "ms")
	x.set("probe_net_us", net.p50(), "us")
	x.set("probe_cpu_us", cpu.p50(), "us")
	x.set("write_samples", float64(len(writes)), "count")
	x.set("resolve_samples", float64(len(resolves)), "count")
	x.set("probe_samples", float64(len(net)), "count")
	x.set("windows", float64(f.windows), "count")
}

// loopStats is one connection's share of a closed-loop run.
type loopStats struct {
	tl          timeline
	ops, failed int
	err         error
}

func (l *loopStats) fail(err error) {
	l.failed++
	if l.err == nil {
		l.err = err
	}
}
