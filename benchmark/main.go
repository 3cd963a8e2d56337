// Command dvebench is the repository's benchmark: it times real writes
// end to end — HTTP, director, session, planner, evaluator and WAL — on
// three workloads, checks that the outputs are correct, and with -trace 1
// replays each workload's generated stream through every layer's entry
// point in turn to report per-layer costs. BENCHMARK.json at the root of
// the repository declares the workloads and metrics; metrics.json beside
// this file records which end-to-end figure each per-layer figure should
// move. Build and run it from the root of a checkout with
//
//	bash benchmark/run.sh --workload churn-durable --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the result object; the lines before
// it name every figure with its unit, including the workload-specific
// ones that are not in BENCHMARK.json.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
)

// minWrites is the fewest write calls an end-to-end run makes, so that its
// write p99 has at least ten samples beyond it.
const minWrites = 1000

// workloads names every workload the benchmark runs. BENCHMARK.json
// declares the ones steady enough to gate on (metrics.json says why
// churn-durable is not); the rest run by name.
var workloads = []string{"churn-durable", "mobility-hotspot", "session-batch"}

// sizes holds every workload's input sizes and cadences.
type sizes struct {
	churn    churnConfig
	mobility mobilityConfig
	batch    batchConfig
}

// fullSizes are the sizes the benchmark runs at.
func fullSizes() sizes {
	return sizes{
		churn: churnConfig{
			Servers: 20, Zones: 80, Clients: 4000, Conns: 2, Util: 0.64,
			SnapshotEvery: 10000, ReassignEvery: 1000, PQoSEvery: 250,
			RecoverTail: 1000, TraceEvents: 3000, NetRefUs: 100,
		},
		mobility: mobilityConfig{
			Servers: 50, Cols: 20, Rows: 20, Avatars: 20000,
			HotZones: 8, HotBias: 0.2, Groups: 400, GroupBias: 0.5,
			TrafficWeight: 0.5, Util: 0.64, StepSec: 1, WarmupSteps: 200,
			AdjEvery: 10, AdjDelta: 0.2, ReassignEvery: 2000, PQoSEvery: 250,
			Horizon: 10000, TraceEvents: 3000, NetRefUs: 80,
		},
		batch: batchConfig{
			Servers: 50, Zones: 500, Clients: 100000, Batch: 25, CapFactor: 1 / 0.64,
			Workers: 2, SnapshotEvery: 1 << 20, ResolveEvery: 120, PQoSEvery: 20,
			HorizonTicks: 240, RecoverTailTicks: 20, TraceTicks: 240, NetRefUs: 450,
		},
	}
}

// tinySizes keep every code path but run in a fraction of a second; the
// self-test uses them.
func tinySizes() sizes {
	return sizes{
		churn: churnConfig{
			Servers: 4, Zones: 8, Clients: 60, Conns: 2, Util: 0.64,
			SnapshotEvery: 50, ReassignEvery: 40, PQoSEvery: 10,
			RecoverTail: 20, TraceEvents: 120, NetRefUs: 100,
		},
		mobility: mobilityConfig{
			Servers: 5, Cols: 5, Rows: 5, Avatars: 300,
			HotZones: 2, HotBias: 0.2, Groups: 20, GroupBias: 0.5,
			TrafficWeight: 0.5, Util: 0.64, StepSec: 1, WarmupSteps: 5,
			AdjEvery: 5, AdjDelta: 0.2, ReassignEvery: 50, PQoSEvery: 20,
			Horizon: 100, TraceEvents: 120, NetRefUs: 80,
		},
		batch: batchConfig{
			Servers: 5, Zones: 10, Clients: 400, Batch: 5, CapFactor: 1 / 0.64,
			Workers: 2, SnapshotEvery: 40, ResolveEvery: 10, PQoSEvery: 4,
			HorizonTicks: 12, RecoverTailTicks: 3, TraceTicks: 12, NetRefUs: 450,
		},
	}
}

// report is one run's outcome: the declared metrics, workload-specific
// extras that are printed but not declared, and failed checks.
type report struct {
	Attempted, Failed int
	Metrics           metrics
	Extra             metrics
	Checks            []string
}

func newReport() *report { return &report{Metrics: metrics{}, Extra: metrics{}} }

func (r *report) check(format string, args ...any) {
	r.Checks = append(r.Checks, fmt.Sprintf(format, args...))
}

// flushPolicy describes how a run's journal reaches the disk.
func flushPolicy(workload string, trace bool, sz sizes) string {
	switch {
	case workload == "churn-durable":
		return fmt.Sprintf("fsync per WAL append; director snapshot every %d events", sz.churn.SnapshotEvery)
	case workload == "session-batch":
		return fmt.Sprintf("fsync per WAL append; session snapshot at open, explicit checkpoint and every %d events", sz.batch.SnapshotEvery)
	case trace:
		return fmt.Sprintf("in-memory director end to end; traced durable layers fsync per WAL append, snapshot every %d events", sz.churn.SnapshotEvery)
	}
	return "in-memory director: no journal"
}

// runWorkload runs one workload in the scratch directory work.
func runWorkload(workload string, sz sizes, seed uint64, seconds float64, trace bool, work string, tr *tracer) (*report, error) {
	switch {
	case workload == "churn-durable" && !trace:
		return runChurn(sz.churn, seed, seconds, work)
	case workload == "churn-durable":
		return traceChurn(sz.churn, seed, work, tr)
	case workload == "mobility-hotspot" && !trace:
		return runMobility(sz.mobility, seed, seconds, work)
	case workload == "mobility-hotspot":
		return traceMobility(sz.mobility, seed, work, tr)
	case workload == "session-batch" && !trace:
		return runBatch(sz.batch, seed, seconds, work)
	case workload == "session-batch":
		return traceBatch(sz.batch, seed, work, tr)
	}
	return nil, fmt.Errorf("unknown workload %q", workload)
}

// measure runs a workload and checks its metrics against BENCHMARK.json.
// A traced run reports 0 for the per-layer metrics of layers the workload
// bypasses.
func measure(decl *declared, workload string, sz sizes, seed uint64, seconds float64, trace bool, work string, tr *tracer) (*report, error) {
	rep, err := runWorkload(workload, sz, seed, seconds, trace, work, tr)
	if err != nil {
		return nil, err
	}
	if trace {
		for _, x := range decl.PerLayer {
			if _, ok := rep.Metrics[x.Name]; !ok {
				rep.Metrics.set(x.Name, 0, x.Unit)
			}
		}
	}
	return rep, decl.conform(rep.Metrics, trace)
}

// declared is the part of BENCHMARK.json the benchmark checks itself
// against.
type declared struct {
	Workloads []named `json:"workloads"`
	EndToEnd  []named `json:"end_to_end"`
	PerLayer  []named `json:"per_layer"`
}

type named struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readDeclared(path string) (*declared, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// conform checks that m holds exactly the declared metrics, with their
// declared units and finite values.
func (d *declared) conform(m metrics, trace bool) error {
	list := d.EndToEnd
	if trace {
		list = d.PerLayer
	}
	want := map[string]string{}
	for _, x := range list {
		want[x.Name] = x.Unit
	}
	var problems []string
	for name, unit := range want {
		got, ok := m[name]
		switch {
		case !ok:
			problems = append(problems, "missing "+name)
		case got.Unit != unit:
			problems = append(problems, fmt.Sprintf("%s in %s, declared %s", name, got.Unit, unit))
		}
	}
	for name, v := range m {
		if _, ok := want[name]; !ok {
			problems = append(problems, "undeclared "+name)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			problems = append(problems, fmt.Sprintf("%s = %v", name, v.Value))
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return fmt.Errorf("metrics disagree with BENCHMARK.json: %v", problems)
	}
	return nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: "+fmt.Sprint(workloads))
	seed := flag.Uint64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 10, "measured seconds of the end-to-end run")
	trace := flag.Int("trace", 0, "1 replays the stream through every layer and reports per-layer metrics")
	flag.Parse()
	code, err := run(*workload, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dvebench:", err)
	}
	os.Exit(code)
}

func run(workload string, seed uint64, seconds float64, trace bool) (int, error) {
	if !slices.Contains(workloads, workload) {
		return 2, fmt.Errorf("unknown workload %q (have %v)", workload, workloads)
	}
	sz := fullSizes()
	decl, err := readDeclared("BENCHMARK.json")
	if err != nil {
		return 2, err
	}
	build, err := filepath.Abs(".bench_build")
	if err != nil {
		return 2, err
	}
	work := filepath.Join(build, fmt.Sprintf("run-%s-%d", workload, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return 2, err
	}
	defer os.RemoveAll(work)
	env := newEnvHeader(workload, seed, seconds, trace, work, flushPolicy(workload, trace, sz))
	if (workload != "mobility-hotspot" || trace) && memoryBacked(env.DataFS) {
		return 2, fmt.Errorf("data directory %s is on %s, where fsync is free; run from a checkout on a disk", work, env.DataFS)
	}
	envLine, _ := json.Marshal(env)
	fmt.Println("env", string(envLine))

	var tr *tracer
	if trace {
		tr = newTracer()
	}
	rep, err := measure(decl, workload, sz, seed, seconds, trace, work, tr)
	if err != nil {
		return 2, err
	}
	for _, set := range []struct {
		tag string
		m   metrics
	}{{"metric", rep.Metrics}, {"extra", rep.Extra}} {
		names := make([]string, 0, len(set.m))
		for n := range set.m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("%s %-34s %14.6g %s\n", set.tag, n, set.m[n].Value, set.m[n].Unit)
		}
	}
	traceFlag := 0
	if trace {
		traceFlag = 1
	}
	suffix := fmt.Sprintf("%s-seed%d-trace%d", workload, seed, traceFlag)
	if tr != nil {
		if err := tr.writeJSONL(filepath.Join(build, "trace", suffix+".jsonl")); err != nil {
			return 2, err
		}
	}
	saved := struct {
		Env     envHeader `json:"env"`
		Checks  []string  `json:"failed_checks"`
		Metrics metrics   `json:"metrics"`
		Extra   metrics   `json:"extra"`
	}{env, rep.Checks, rep.Metrics, rep.Extra}
	b, err := json.MarshalIndent(saved, "", "  ")
	if err != nil {
		return 2, err
	}
	if err := os.MkdirAll(filepath.Join(build, "results"), 0o755); err != nil {
		return 2, err
	}
	if err := os.WriteFile(filepath.Join(build, "results", suffix+".json"), b, 0o644); err != nil {
		return 2, err
	}

	out := result{Correct: len(rep.Checks) == 0, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: rep.Metrics}
	code := 0
	if !out.Correct {
		for _, c := range rep.Checks {
			fmt.Fprintln(os.Stderr, "dvebench: check failed:", c)
		}
		out.Metrics = metrics{}
		code = 1
	}
	if out.Attempted < 1 {
		return 2, errors.New("no operation attempted")
	}
	line, err := json.Marshal(out)
	if err != nil {
		return 2, err
	}
	fmt.Println(string(line))
	return code, nil
}
