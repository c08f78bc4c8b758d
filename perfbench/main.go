// Command perfbench is the repository's end-to-end benchmark. It runs one
// of two closed-loop workloads — escalate, population — with a single
// caller, drives the simulator only through its public
// entry points, checks every op's outputs, and prints its metrics by
// name and unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (set-up time,
// throughput, op latency, memory). With --trace 1 the same workload runs
// with spans around the benchmark's calls into each layer and exact
// per-op work counts, and the metrics are the per-layer ones. NOTES.md
// says why each workload exists and which layer metric should move
// which end-to-end metric.
//
// Usage, from the root of the repository:
//
//	bash perfbench/run.sh --workload escalate --seed 1 --seconds 50 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// setupReps is how many times each workload's set-up (construction plus
// warm-up) runs before the timed phase, and again after it; setup_s is
// the median of all of them. The host this was sized on swings between
// a fast and a slow mode (2× on the hammer loop) for seconds at a time,
// so set-ups timed at both ends of the run sample more than one of those
// periods.
const setupReps = 4

// workload is one named benchmark input. All methods run on the single
// benchmark goroutine.
type workload interface {
	// setup builds the workload's state for the seed and warms it up.
	// The last build before the timed phase is the one ops run on.
	// A non-nil tracer records spans around its layer calls.
	setup(seed int64, tr *tracer) error
	// op runs op i. It is the only call the end-to-end timings cover.
	op(i int) error
	// check verifies op i's outputs. It is not timed.
	check(i int) error
	// finish checks properties of the whole run; an error counts as
	// one failed op.
	finish() error
	// units is the work one op does, in the workload's throughput unit.
	units() float64
	// memOps is how many ops, from the first, alloc_mb_per_op and
	// peak_heap_mb cover.
	memOps() int
	// traced repeats op i's input with spans around each layer call
	// and verifies it reproduces op i's outputs. For trace.overhead_frac
	// it returns the time of its spanned calls that repeat untraced
	// work, and the time of the untraced twins of that work it ran
	// itself, beyond op i.
	traced(tr *tracer, i int) (spanned, plain time.Duration, err error)
	// layers reports the per-layer metrics gathered over ops traced ops.
	layers(tr *tracer, ops int, put func(name string, v float64))
	// counts summarises the exact work counts of every op run so far;
	// two runs of one seed must return the same string.
	counts() string
}

var workloads = map[string]func() workload{
	"escalate":   func() workload { return &escalateWL{} },
	"population": func() workload { return &populationWL{} },
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd is every end-to-end metric's unit. Throughput counts
// escalations or tenants per second of op time.
var endToEnd = map[string]string{
	"setup_s":         "s",
	"throughput":      "1/s",
	"op_ms_p50":       "ms",
	"alloc_mb_per_op": "MB",
	"peak_heap_mb":    "MB",
}

// perLayer is every per-layer metric with its unit, in report order. A
// workload's traced run fills the ones whose layer it drives; the rest
// read 0, meaning the workload makes no traced call into that layer.
var perLayer = []struct{ name, unit string }{
	{"bench.planner_ms", "ms"},
	{"bench.plan_ms", "ms"},
	{"bench.planner_pairs", "count"},
	{"bench.planner_share", "fraction"},
	{"bench.driver_ms", "ms"},
	{"bench.iters_per_op", "count"},
	{"bench.windows_per_op", "count"},
	{"bench.rebuilds", "count"},
	{"bench.replans", "count"},
	{"bench.success_count", "count"},
	{"bench.implicit_frac", "fraction"},
	{"fault.events_per_op", "count"},
	{"evset.build_ms", "ms"},
	{"evset.tlb_set_size", "count"},
	{"evset.llc_set_size", "count"},
	{"evset.loads_per_iter", "count"},
	{"evset.tlb_evict_us", "us"},
	{"evset.llc_evict_us", "us"},
	{"evset.evict_share", "fraction"},
	{"machine.new_ms", "ms"},
	{"machine.probe_us", "us"},
	{"machine.host_ns_per_load", "ns"},
	{"machine.sim_cycles_per_iter", "cycles"},
	{"machine.priv_ops", "count"},
	{"tlb.walks_per_iter", "count"},
	{"ptwalk.pscache_hits_per_iter", "count"},
	{"ptwalk.l1pte_dram_per_iter", "count"},
	{"cache.llc_refs_per_iter", "count"},
	{"cache.llc_misses_per_iter", "count"},
	{"dram.acts_per_iter", "count"},
	{"dram.row_conflicts_per_iter", "count"},
	{"flip.flips_per_miter", "count"},
	{"flip.windows_per_kiter", "count"},
	{"core.handoff_ns", "ns"},
	{"cohort.attacker_loads_per_tenant", "count"},
	{"cohort.breached_per_m", "count"},
	{"cohort.diluted_per_m", "count"},
	{"cohort.table_flips_per_m", "count"},
	{"runtime.gc_cpu_frac", "fraction"},
	{"runtime.gc_cycles_per_op", "count"},
	{"trace.overhead_frac", "fraction"},
	{"trace.census_overhead_frac", "fraction"},
}

func main() {
	name := flag.String("workload", "", "workload to run: escalate or population")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 50, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	printHost()
	d := time.Duration(*seconds) * time.Second
	var res result
	var err error
	if *trace == 1 {
		res, err = runTraced(mk(), *seed, d)
	} else {
		res, err = runTimed(mk(), *seed, d)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("# %-34s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// printHost records the host fingerprint ahead of every result, so a
// comparison across hosts shows up as one.
func printHost() {
	host := map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
	b, _ := json.Marshal(map[string]any{"host": host})
	fmt.Println(string(b))
}

// cpuModel reads the CPU model name from /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// timeSetup runs the workload's set-up setupReps times and appends the
// durations to ds.
func timeSetup(w workload, seed int64, ds []float64) ([]float64, error) {
	for r := 0; r < setupReps; r++ {
		t := time.Now()
		if err := w.setup(seed, nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		ds = append(ds, float64(time.Since(t)))
	}
	return ds, nil
}

// runTimed is the end-to-end measurement: set-up, a forced GC, then ops
// back to back until the run's time is up, tracing off.
func runTimed(w workload, seed int64, d time.Duration) (result, error) {
	setups, err := timeSetup(w, seed, nil)
	if err != nil {
		return result{}, err
	}
	// The memory metrics cover the first memOps ops, a fixed amount of
	// work, so they do not grow with the host's speed.
	memOps := w.memOps()
	peakLive := liveHeap()
	var allocated uint64
	allocSample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	allocs := func() uint64 {
		metrics.Read(allocSample)
		return allocSample[0].Value.Uint64()
	}
	opNs := make([]float64, 0, 1<<16)
	var busy time.Duration
	failed := 0
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < d; i++ {
		a0 := allocs()
		t := time.Now()
		err := w.op(i)
		dt := time.Since(t)
		if i < memOps {
			allocated += allocs() - a0
		}
		busy += dt
		opNs = append(opNs, float64(dt))
		if err == nil {
			err = w.check(i)
		}
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "op %d failed: %v\n", i, err)
		}
		if i == memOps-1 {
			peakLive = max(peakLive, liveHeap())
		}
	}
	ops := len(opNs)
	if ops < memOps {
		memOps = ops
		peakLive = max(peakLive, liveHeap())
	}
	if err := w.finish(); err != nil {
		failed++
		fmt.Fprintf(os.Stderr, "run check failed: %v\n", err)
	}
	if setups, err = timeSetup(w, seed, setups); err != nil {
		return result{}, err
	}
	vals := map[string]float64{
		"setup_s":         quantile(setups, 0.5) / 1e9,
		"throughput":      w.units() * float64(ops) / busy.Seconds(),
		"op_ms_p50":       quantile(opNs, 0.5) / 1e6,
		"alloc_mb_per_op": float64(allocated) / (1 << 20) / float64(memOps),
		"peak_heap_mb":    float64(peakLive) / (1 << 20),
	}
	res := result{Correct: failed == 0, Attempted: ops, Failed: failed, Metrics: map[string]metric{}}
	for name, v := range vals {
		res.Metrics[name] = metric{v, endToEnd[name]}
	}
	// The tail is printed, not gated: on the host this was sized on, the
	// p90 of a run follows the host's slow periods too closely to hold a
	// bound (see NOTES.md).
	fmt.Printf("# %d ops; op ms quantiles:", ops)
	for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		fmt.Printf(" p%g=%.3f", 100*q, quantile(opNs, q)/1e6)
	}
	fmt.Println()
	return res, nil
}

// runTraced is the per-layer measurement: one set-up, then pairs of an
// untraced op and the same input traced, until the run's time is up.
// The pairing makes trace.overhead_frac a like-for-like ratio and lets
// every traced op be checked against its untraced twin.
func runTraced(w workload, seed int64, d time.Duration) (result, error) {
	tr := newTracer()
	if err := w.setup(seed, tr); err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	runtime.GC()
	rt := newRuntimeDelta()
	var plain, traced time.Duration
	failed, ops := 0, 0
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < d; i++ {
		t := time.Now()
		err := w.op(i)
		plain += time.Since(t)
		if err == nil {
			err = w.check(i)
		}
		if err == nil {
			var st, pt time.Duration
			st, pt, err = w.traced(tr, i)
			traced += st
			plain += pt
		}
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "op %d failed: %v\n", i, err)
		}
		ops++
	}
	if err := w.finish(); err != nil {
		failed++
		fmt.Fprintf(os.Stderr, "run check failed: %v\n", err)
	}
	vals := make(map[string]float64)
	w.layers(tr, ops, func(name string, v float64) { vals[name] = v })
	gcFrac, gcCycles := rt.read()
	// Both the untraced and the traced pass of each op count here.
	vals["runtime.gc_cpu_frac"] = gcFrac
	vals["runtime.gc_cycles_per_op"] = gcCycles / float64(2*ops)
	vals["trace.overhead_frac"] = traced.Seconds()/plain.Seconds() - 1
	res := result{Correct: failed == 0, Attempted: ops, Failed: failed, Metrics: map[string]metric{}}
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{vals[m.name], m.unit}
		delete(vals, m.name)
	}
	if len(vals) != 0 {
		return result{}, fmt.Errorf("workload reported unlisted per-layer metrics %v", vals)
	}
	tr.summary(os.Stderr)
	return res, nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// liveHeap runs a GC and returns the live heap it found, in bytes.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// runtimeDelta measures the Go runtime's GC share of CPU time and its GC
// cycles since it was created.
type runtimeDelta struct{ s0 []metrics.Sample }

var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func newRuntimeDelta() runtimeDelta { return runtimeDelta{readRuntime()} }

func (r runtimeDelta) read() (gcFrac, gcCycles float64) {
	s1 := readRuntime()
	f := func(i int) float64 {
		if s1[i].Value.Kind() == metrics.KindFloat64 {
			return s1[i].Value.Float64() - r.s0[i].Value.Float64()
		}
		return float64(s1[i].Value.Uint64() - r.s0[i].Value.Uint64())
	}
	if cpu := f(1); cpu > 0 {
		gcFrac = f(0) / cpu
	}
	return gcFrac, f(2)
}

// mix derives the k-th input seed of a workload from its seed
// (splitmix64), so inputs differ across ops and across workload seeds.
func mix(seed int64, k uint64) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + (k+1)*0xbf58476d1ce4e5b9
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64((z ^ z>>31) >> 1)
}
