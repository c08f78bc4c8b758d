package main

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// runOps sets a workload up for seed and runs ops 0..n-1 with their
// checks, then one traced op, and returns its exact work counts.
func runOps(t *testing.T, name string, seed int64, n int) string {
	t.Helper()
	w := workloads[name]()
	if err := w.setup(seed, nil); err != nil {
		t.Fatalf("%s set-up: %v", name, err)
	}
	for i := 0; i < n; i++ {
		if err := w.op(i); err != nil {
			t.Fatalf("%s op %d: %v", name, i, err)
		}
		if err := w.check(i); err != nil {
			t.Fatalf("%s op %d check: %v", name, i, err)
		}
	}
	tr := newTracer()
	if err := w.setup(seed, tr); err != nil {
		t.Fatalf("%s traced set-up: %v", name, err)
	}
	for i := 0; i < n; i++ {
		if err := w.op(i); err != nil {
			t.Fatalf("%s op %d: %v", name, i, err)
		}
		if err := w.check(i); err != nil {
			t.Fatalf("%s op %d check: %v", name, i, err)
		}
		if _, _, err := w.traced(tr, i); err != nil {
			t.Fatalf("%s traced op %d: %v", name, i, err)
		}
	}
	return w.counts()
}

// TestCountsRepeat pins that the exact work counts the benchmark reports
// — Verdicts, Populations, and the hammer census's perf-counter deltas,
// flips and windows — repeat bit for bit across runs of one seed, so
// they can be cited as counts.
func TestCountsRepeat(t *testing.T) {
	for name, n := range map[string]int{"escalate": 2, "population": 3} {
		t.Run(name, func(t *testing.T) {
			a, b := runOps(t, name, 5, n), runOps(t, name, 5, n)
			if a != b {
				t.Fatalf("counts differ between runs of one seed:\n%s\n%s", a, b)
			}
			if c := runOps(t, name, 6, n); c == a {
				t.Fatalf("counts do not depend on the seed: %s", c)
			}
		})
	}
}

// TestTracedHammerMatchesHammerOnce pins that the traced hammer batch,
// which spells out HammerOnce's calls to put a span around each, drives
// the machine exactly as HammerOnce does.
func TestTracedHammerMatchesHammerOnce(t *testing.T) {
	plain, traced := &hammerWL{}, &hammerWL{}
	for _, w := range []*hammerWL{plain, traced} {
		if err := w.setup(7, nil); err != nil {
			t.Fatal(err)
		}
		if err := w.op(0); err != nil {
			t.Fatal(err)
		}
	}
	if err := plain.op(1); err != nil {
		t.Fatal(err)
	}
	if _, err := traced.traced(newTracer(), 1); err != nil {
		t.Fatal(err)
	}
	if a, b := plain.counts(), traced.counts(); a != b {
		t.Fatalf("HammerOnce and the traced batch diverge:\n%s\n%s", a, b)
	}
}

// TestStableEntryPointsOnly keeps the benchmark off code the roadmap
// plans to delete or merge, so removing that code never needs a
// benchmark edit: the payload executor and its compilers, the closure
// replay switch, and the single-shot escalation and flip-rate runners.
func TestStableEntryPointsOnly(t *testing.T) {
	banned := map[string]bool{
		"bench.CompileHammer":     true,
		"bench.CompilePrivileged": true,
		"bench.RunEscalation":     true,
		"bench.RunFlipRate":       true,
		"bench.RunEscalationDemo": true,
		"bench.Scenarios":         true,
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if strings.Contains(imp.Path.Value, "internal/payload") {
				t.Errorf("%s imports %s", fset.Position(imp.Pos()), imp.Path.Value)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && banned[x.Name+"."+n.Sel.Name] {
					t.Errorf("%s uses %s.%s", fset.Position(n.Pos()), x.Name, n.Sel.Name)
				}
			case *ast.Ident:
				if n.Name == "ClosureReplay" {
					t.Errorf("%s uses sweep.Spec.ClosureReplay", fset.Position(n.Pos()))
				}
			}
			return true
		})
	}
}

// TestBenchmarkJSONNamesMetrics pins that BENCHMARK.json declares exactly
// the workloads and metrics this program reports, with the same units.
func TestBenchmarkJSONNamesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for n := range workloads {
		have = append(have, n)
	}
	sort.Strings(names)
	sort.Strings(have)
	if strings.Join(names, ",") != strings.Join(have, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, have)
	}
	units := func(ms []struct{ Name, Unit string }) map[string]string {
		out := make(map[string]string)
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	wantLayer := make(map[string]string)
	for _, m := range perLayer {
		wantLayer[m.name] = m.unit
	}
	if got := units(spec.PerLayer); !equalMaps(got, wantLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, program reports %v", got, wantLayer)
	}
	if got := units(spec.EndToEnd); !equalMaps(got, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program reports %v", got, endToEnd)
	}
}

func equalMaps(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}
