package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// TestStreamDigest: one seed always generates the same inputs, and two
// seeds generate different ones.
func TestStreamDigest(t *testing.T) {
	sz := tinySizes()
	for _, w := range workloads {
		a, err := streamDigest(w, sz, 1, 40)
		if err != nil {
			t.Fatal(err)
		}
		b, err := streamDigest(w, sz, 1, 40)
		if err != nil {
			t.Fatal(err)
		}
		c, err := streamDigest(w, sz, 7, 40)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%s: seed 1 gave digests %016x and %016x", w, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 7 both gave digest %016x", w, a)
		}
	}
}

func names(list []named) []string {
	var out []string
	for _, x := range list {
		out = append(out, x.Name)
	}
	sort.Strings(out)
	return out
}

func keys[V any](m map[string]V) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestSelfTest runs every workload, untraced and traced, at tiny sizes
// and checks that it passes its own correctness checks and emits exactly
// the metrics BENCHMARK.json declares (measure fails otherwise), and that
// metrics.json maps every declared per-layer metric onto known workloads
// and figures.
func TestSelfTest(t *testing.T) {
	decl, err := readDeclared("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	runs := append([]string(nil), workloads...)
	sort.Strings(runs)
	for _, w := range names(decl.Workloads) {
		if i := sort.SearchStrings(runs, w); i == len(runs) || runs[i] != w {
			t.Errorf("BENCHMARK.json declares workload %q, which the benchmark does not run", w)
		}
	}
	work, err := filepath.Abs(fmt.Sprintf("../.bench_build/selftest-%d", os.Getpid()))
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(work)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			dir := filepath.Join(work, fmt.Sprintf("%s-%v", w, trace))
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			var tr *tracer
			if trace {
				tr = newTracer()
			}
			rep, err := measure(decl, w, tinySizes(), 1, 0.2, trace, dir, tr)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if len(rep.Checks) > 0 {
				t.Errorf("%s trace=%v: failed checks %v", w, trace, rep.Checks)
			}
			if rep.Attempted < 1 || rep.Failed != 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d", w, trace, rep.Attempted, rep.Failed)
			}
			if trace && len(tr.spans) == 0 {
				t.Errorf("%s: traced run recorded no spans", w)
			}
		}
	}

	var doc struct {
		Workloads map[string]json.RawMessage `json:"workloads"`
		EndToEnd  map[string]json.RawMessage `json:"end_to_end"`
		Extras    map[string]json.RawMessage `json:"extras"`
		PerLayer  map[string]struct {
			Moves []struct {
				Metrics []string `json:"metrics"`
				On      []string `json:"on"`
			} `json:"moves"`
			NotOn []string `json:"not_on"`
		} `json:"per_layer"`
	}
	b, err := os.ReadFile("metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	e2e, layers := names(decl.EndToEnd), names(decl.PerLayer)
	if fmt.Sprint(keys(doc.EndToEnd)) != fmt.Sprint(e2e) {
		t.Errorf("metrics.json end_to_end %v, BENCHMARK.json %v", keys(doc.EndToEnd), e2e)
	}
	if fmt.Sprint(keys(doc.PerLayer)) != fmt.Sprint(layers) {
		t.Errorf("metrics.json per_layer %v, BENCHMARK.json %v", keys(doc.PerLayer), layers)
	}
	if fmt.Sprint(keys(doc.Workloads)) != fmt.Sprint(runs) {
		t.Errorf("metrics.json workloads %v", keys(doc.Workloads))
	}
	for name, l := range doc.PerLayer {
		for _, mv := range l.Moves {
			for _, m := range mv.Metrics {
				if doc.EndToEnd[m] == nil && doc.Extras[m] == nil {
					t.Errorf("%s moves unknown figure %q", name, m)
				}
			}
			for _, w := range append(mv.On, l.NotOn...) {
				if doc.Workloads[w] == nil {
					t.Errorf("%s names unknown workload %q", name, w)
				}
			}
		}
	}
}
