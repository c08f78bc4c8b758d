package main

import (
	"fmt"
	"strings"
	"time"

	"pthammer/internal/bench"
	"pthammer/internal/evset"
	"pthammer/internal/flip"
	"pthammer/internal/machine"
	"pthammer/internal/perf"
	"pthammer/internal/timing"
)

// hammerBatch is how many HammerOnce iterations one hammer batch runs
// (4.5–9 ms on a 2-vCPU Xeon host, depending on the host's mode).
const hammerBatch = 1024

// hammerWL is the paper's attack loop on the class-A escalation layout:
// set-up builds the machine, plans the aggressor pair and builds its four
// eviction sets; op runs a fixed batch of flush-free hammer iterations.
// It is not an end-to-end workload — its batch time follows the host's
// fast and slow modes too closely to gate on (see NOTES.md) — but the
// escalate workload's traced run drives it as a census of the
// memory-hierarchy layers under the attack loop.
type hammerWL struct {
	m *machine.Machine
	h *bench.ImplicitHammer

	// Set by op for check: cycles HammerOnce reported and the clock's
	// advance over the batch.
	opCycles, opClock timing.Cycles
	iters, implicit   uint64

	// Traced iterations and the exact work counts over them.
	trIters, trImplicit uint64
	trCycles            timing.Cycles
	trDelta             [perf.WalkStepPTE + 1]uint64
	trFlips, trWindows  uint64
}

func (w *hammerWL) setup(seed int64, tr *tracer) error {
	var (
		model   *flip.Model
		m       *machine.Machine
		planner *bench.EscalationPlanner
		plan    *bench.EscalationPlan
		h       *bench.ImplicitHammer
		err     error
	)
	// The spans are the census's own, apart from the ones escalate
	// times per op, so one-off set-up calls do not mix into per-op means.
	steps := []struct {
		span string
		fn   func()
	}{
		{"census.flip_model", func() { model, err = flip.NewModel(flip.ClassA(), seed) }},
		{"census.machine_new", func() { m, err = machine.New(bench.EscalationConfig(model)) }},
		// NewEscalationPlanner + Next is bench.PlanEscalation, split so
		// the two halves get their own spans.
		{"census.planner", func() { planner, err = bench.NewEscalationPlanner(m) }},
		{"census.plan", func() { plan, err = planner.Next() }},
		{"census.evset_build", func() { h, err = bench.NewImplicitHammerForPair(m, plan.Pair, plan.Exclude, evset.Options{}) }},
	}
	for _, s := range steps {
		spanned(tr, s.span, s.fn)
		if err != nil {
			return fmt.Errorf("%s: %w", s.span, err)
		}
	}
	w.m, w.h = m, h
	w.iters, w.implicit = 0, 0
	// Warm-up: one batch, so the hot loop's code and data are cached.
	return w.op(-1)
}

func (w *hammerWL) op(int) error {
	c0 := w.m.Clock().Now()
	var cyc timing.Cycles
	for k := 0; k < hammerBatch; k++ {
		it := w.h.HammerOnce(w.m)
		cyc += it.Cycles
		if it.Walked && it.LeafFromDRAM {
			w.implicit++
		}
	}
	w.opCycles, w.opClock = cyc, w.m.Clock().Now()-c0
	w.iters += hammerBatch
	return nil
}

// check: the attack path stayed flush-free, and the cycles the loop
// reported are exactly the simulated time that passed.
func (w *hammerWL) check(int) error {
	if f, i := w.m.PrivilegedOps(); f != 0 || i != 0 {
		return fmt.Errorf("privileged ops on the attack path: %d clflush, %d invlpg", f, i)
	}
	if w.opCycles != w.opClock {
		return fmt.Errorf("iterations reported %d cycles, clock advanced %d", w.opCycles, w.opClock)
	}
	return nil
}

// traced runs one batch with HammerOnce's body spelled out — per side,
// TLB eviction set, PTE-line LLC eviction set, then the timed probe — so
// each Evict and Probe gets its own span. The calls and their order are
// HammerOnce's; the self-test pins that both loops leave identical
// machines.
func (w *hammerWL) traced(tr *tracer, _ int) (time.Duration, error) {
	m, h := w.m, w.h
	batch, tlbE, llcE, probe := tr.id("bench.hammer_batch"), tr.id("evset.tlb_evict"), tr.id("evset.llc_evict"), tr.id("machine.probe")
	snap := m.Counters().Snapshot()
	flips0, win0 := len(m.FlipModel().Flips()), m.FlipModel().Windows()
	c0 := m.Clock().Now()
	var cyc timing.Cycles
	tr.begin(batch)
	for k := 0; k < hammerBatch; k++ {
		tr.begin(tlbE)
		cyc += h.TLB1.Evict(m)
		tr.end()
		tr.begin(llcE)
		cyc += h.LLC1.Evict(m)
		tr.end()
		tr.begin(probe)
		p1 := m.Probe(h.Pair.VA1)
		tr.end()
		tr.begin(tlbE)
		cyc += h.TLB2.Evict(m)
		tr.end()
		tr.begin(llcE)
		cyc += h.LLC2.Evict(m)
		tr.end()
		tr.begin(probe)
		p2 := m.Probe(h.Pair.VA2)
		tr.end()
		cyc += p1.Latency + p2.Latency
		if p1.Walked && p2.Walked && p1.LeafFromDRAM && p2.LeafFromDRAM {
			w.trImplicit++
		}
	}
	d := tr.end()
	w.trIters += hammerBatch
	w.trCycles += m.Clock().Now() - c0
	for e := range w.trDelta {
		w.trDelta[e] += snap.Delta(m.Counters(), perf.Event(e))
	}
	w.trFlips += uint64(len(m.FlipModel().Flips()) - flips0)
	w.trWindows += m.FlipModel().Windows() - win0
	w.opCycles, w.opClock = cyc, m.Clock().Now()-c0
	return d, w.check(0)
}

// layers reports the census metrics over ops batches; plain is the summed
// time of the untraced batches. The Evict and Probe span means include
// the spans' own cost, which trace.census_overhead_frac reports.
func (w *hammerWL) layers(tr *tracer, ops int, plain time.Duration, put func(string, float64)) {
	h := w.h
	tlbSize := float64(len(h.TLB1.Pages)+len(h.TLB2.Pages)) / 2
	llcSize := float64(len(h.LLC1.Addrs)+len(h.LLC2.Addrs)) / 2
	loads := 2*tlbSize + 2*llcSize + 2
	it := float64(w.trIters)
	per := func(e perf.Event) float64 { return float64(w.trDelta[e]) / it }
	f, i := w.m.PrivilegedOps()
	put("bench.implicit_frac", float64(w.trImplicit)/it)
	put("evset.build_ms", tr.meanMs("census.evset_build"))
	put("evset.tlb_set_size", tlbSize)
	put("evset.llc_set_size", llcSize)
	put("evset.loads_per_iter", loads)
	put("evset.tlb_evict_us", tr.meanMs("evset.tlb_evict")*1e3)
	put("evset.llc_evict_us", tr.meanMs("evset.llc_evict")*1e3)
	put("evset.evict_share", (tr.totalOf("evset.tlb_evict")+tr.totalOf("evset.llc_evict")).Seconds()/
		tr.totalOf("bench.hammer_batch").Seconds())
	put("machine.probe_us", tr.meanMs("machine.probe")*1e3)
	put("machine.host_ns_per_load", float64(plain.Nanoseconds())/float64(ops*hammerBatch)/loads)
	put("machine.sim_cycles_per_iter", float64(w.trCycles)/it)
	put("machine.priv_ops", float64(f+i))
	put("tlb.walks_per_iter", per(perf.DTLBLoadMissesWalk))
	put("ptwalk.pscache_hits_per_iter", per(perf.PSCacheHit))
	put("ptwalk.l1pte_dram_per_iter", per(perf.L1PTEMemoryFetch))
	put("cache.llc_refs_per_iter", per(perf.LLCReference))
	put("cache.llc_misses_per_iter", per(perf.LongestLatCacheMiss))
	put("dram.acts_per_iter", per(perf.DRAMActivate))
	put("dram.row_conflicts_per_iter", per(perf.DRAMRowConflicts))
	put("flip.flips_per_miter", float64(w.trFlips)*1e6/it)
	put("flip.windows_per_kiter", float64(w.trWindows)*1e3/it)
	put("trace.census_overhead_frac", tr.totalOf("bench.hammer_batch").Seconds()/plain.Seconds()-1)
}

func (w *hammerWL) counts() string {
	var b strings.Builder
	m := w.m
	fmt.Fprintf(&b, "iters=%d implicit=%d clock=%d flips=%d windows=%d",
		w.iters+w.trIters, w.implicit+w.trImplicit, m.Clock().Now(), len(m.FlipModel().Flips()), m.FlipModel().Windows())
	for e := perf.Event(0); e <= perf.WalkStepPTE; e++ {
		fmt.Fprintf(&b, " %s=%d", e, m.Counters().Read(e))
	}
	return b.String()
}
