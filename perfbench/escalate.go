package main

import (
	"fmt"
	"time"

	"pthammer/internal/bench"
	"pthammer/internal/fault"
	"pthammer/internal/flip"
	"pthammer/internal/machine"
)

// escalateSeedsPerScenario is how many escalation seeds each recoverable
// fault scenario gets before the inputs wrap around. Op cost depends on
// the seed (0.2–1.2 s on a 2-vCPU Xeon host, by how long the hammer
// waits for an exploitable flip), so a run must average over many
// distinct inputs to be steady across workload seeds; 24 per scenario
// is more than a 50 s run usually reaches.
const escalateSeedsPerScenario = 24

// escalateWL is the user's "one escalation": each op is one
// bench.RunEscalationResilient on class A, cycling the recoverable
// fault.Matrix() scenarios, each with its own seed derived from the
// workload seed.
type escalateWL struct {
	seed    int64
	scen    []fault.Scenario
	warm    fault.Scenario
	last    bench.Verdict
	digests map[int]string // by input index

	// Traced mode: a twin machine the planner is timed on, the hammer
	// census, and totals over the traced escalations.
	twin                       *machine.Machine
	census                     *hammerWL
	censusPlain                time.Duration
	pairs                      int
	iters, windows, faultCount uint64
	rebuilds, replans, success uint
	privOps                    uint64
}

// input returns op i's fault scenario and escalation seed.
func (w *escalateWL) input(i int) (int, fault.Scenario, int64) {
	k := i % (escalateSeedsPerScenario * len(w.scen))
	return k, w.scen[k%len(w.scen)], mix(w.seed, uint64(k/len(w.scen)))
}

// setup runs the warm-up escalation, which also leaves a machine on the
// driver's free list for the ops to recycle. The warm-up uses the
// perfect-TRR scenario: no flip can land, so the driver walks every
// tier (planner, hammer attempts, three replans) on the same path for
// every seed, and set-up time does not depend on the seed.
func (w *escalateWL) setup(seed int64, tr *tracer) error {
	if w.digests == nil {
		w.seed = seed
		w.digests = make(map[int]string)
		for _, s := range fault.Matrix() {
			switch {
			case s.Recoverable:
				w.scen = append(w.scen, s)
			case s.Config != nil && s.Config.Class == fault.TRRSuppress:
				w.warm = s
			}
		}
		if len(w.scen) == 0 || w.warm.Config == nil {
			return fmt.Errorf("fault matrix lacks recoverable or perfect-TRR scenarios")
		}
	}
	v, err := bench.RunEscalationResilient(flip.ClassA(), seed, w.warm.Config, bench.DefaultBudget())
	if err != nil {
		return err
	}
	if err := verdictSane(v); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	if d, ok := w.digests[-1]; ok && d != digest(v) {
		return fmt.Errorf("warm-up verdict differs between set-ups: %s vs %s", d, digest(v))
	}
	w.digests[-1] = digest(v)
	if tr == nil {
		return nil
	}
	tr.do("machine.new", func() { w.twin, err = machine.New(bench.EscalationConfig(flip.MustNewModel(flip.ClassA(), seed))) })
	if err != nil {
		return err
	}
	w.census = &hammerWL{}
	return w.census.setup(seed, tr)
}

func (w *escalateWL) op(i int) error {
	_, s, seed := w.input(i)
	v, err := bench.RunEscalationResilient(flip.ClassA(), seed, s.Config, bench.DefaultBudget())
	w.last = v
	return err
}

// check: the verdict is well-formed and flush-free, and an input seen
// before produced the identical verdict.
func (w *escalateWL) check(i int) error {
	if err := verdictSane(w.last); err != nil {
		return err
	}
	k, s, seed := w.input(i)
	d := digest(w.last)
	if prev, ok := w.digests[k]; ok && prev != d {
		return fmt.Errorf("%s seed %d: verdict changed on rerun: %s vs %s", s.Name, seed, prev, d)
	}
	w.digests[k] = d
	return nil
}

// finish reruns op 0's input and compares verdicts, so every run checks
// that one (scenario, seed) pair escalates identically twice.
func (w *escalateWL) finish() error {
	if err := w.op(0); err != nil {
		return err
	}
	return w.check(0)
}

func (w *escalateWL) units() float64 { return 1 }

func (w *escalateWL) memOps() int { return 48 }

// traced times the planner on a twin machine configured as the driver's
// (same flip and fault models), since the driver's own planner call is
// internal to RunEscalationResilient, then repeats the escalation itself
// inside one span and checks it reproduces op i's verdict. Last, the
// hammer census runs one untraced and one traced batch of the attack
// loop, which the driver also runs internally, so the layers under it
// get spans and exact per-iteration counts. The spanned time is the
// escalation's plus the traced batch's; the untraced batch is the
// latter's twin.
func (w *escalateWL) traced(tr *tracer, i int) (time.Duration, time.Duration, error) {
	_, s, seed := w.input(i)
	var fam *fault.Model
	if s.Config != nil {
		fc := *s.Config
		fc.Seed = seed
		fam = fault.MustNewModel(fc)
	}
	var err error
	tr.do("machine.reset", func() { err = w.twin.ResetWithModels(flip.MustNewModel(flip.ClassA(), seed), fam) })
	if err != nil {
		return 0, 0, err
	}
	var planner *bench.EscalationPlanner
	tr.do("bench.planner", func() { planner, err = bench.NewEscalationPlanner(w.twin) })
	if err != nil {
		return 0, 0, err
	}
	w.pairs = planner.Remaining()
	tr.do("bench.plan", func() { _, err = planner.Next() })
	if err != nil {
		return 0, 0, err
	}
	want := digest(w.last)
	var v bench.Verdict
	d := tr.do("bench.escalation", func() { v, err = bench.RunEscalationResilient(flip.ClassA(), seed, s.Config, bench.DefaultBudget()) })
	if err != nil {
		return d, 0, err
	}
	if got := digest(v); got != want {
		return d, 0, fmt.Errorf("%s seed %d: traced verdict differs: %s vs %s", s.Name, seed, got, want)
	}
	w.iters += v.Iterations
	w.windows += v.Windows
	w.faultCount += v.Faults.Total()
	w.rebuilds += v.Rebuilds
	w.replans += v.Replans
	w.privOps += v.PrivFlushes + v.PrivInvlpgs
	if v.Success {
		w.success++
	}
	t := time.Now()
	if err := w.census.op(i); err != nil {
		return d, 0, err
	}
	plain := time.Since(t)
	w.censusPlain += plain
	if err := w.census.check(i); err != nil {
		return d, plain, err
	}
	batch, err := w.census.traced(tr, i)
	return d + batch, plain, err
}

func (w *escalateWL) layers(tr *tracer, ops int, put func(string, float64)) {
	w.census.layers(tr, ops, w.censusPlain, put)
	n := float64(ops)
	planner, plan, esc := tr.meanMs("bench.planner"), tr.meanMs("bench.plan"), tr.meanMs("bench.escalation")
	put("bench.planner_ms", planner)
	put("bench.plan_ms", plan)
	put("bench.planner_pairs", float64(w.pairs))
	put("bench.planner_share", (planner+plan)/esc)
	put("bench.driver_ms", esc-planner-plan)
	put("bench.iters_per_op", float64(w.iters)/n)
	put("bench.windows_per_op", float64(w.windows)/n)
	put("bench.rebuilds", float64(w.rebuilds))
	put("bench.replans", float64(w.replans))
	put("bench.success_count", float64(w.success))
	put("fault.events_per_op", float64(w.faultCount)/n)
	put("machine.new_ms", tr.meanMs("machine.new"))
	f, i := w.census.m.PrivilegedOps()
	put("machine.priv_ops", float64(w.privOps+f+i))
}

func (w *escalateWL) counts() string {
	s := fmt.Sprint(w.digests)
	if w.census != nil {
		s += " census: " + w.census.counts()
	}
	return s
}

// verdictSane checks the invariants every Verdict must hold.
func verdictSane(v bench.Verdict) error {
	b := bench.DefaultBudget()
	switch {
	case v.PrivFlushes != 0 || v.PrivInvlpgs != 0:
		return fmt.Errorf("privileged ops on the attack path: %d clflush, %d invlpg", v.PrivFlushes, v.PrivInvlpgs)
	case v.Windows > b.MaxWindows:
		return fmt.Errorf("spent %d windows, budget %d", v.Windows, b.MaxWindows)
	case v.Rebuilds > b.MaxRebuilds || v.Replans > b.MaxReplans:
		return fmt.Errorf("took %d rebuilds, %d replans, budget %d, %d", v.Rebuilds, v.Replans, b.MaxRebuilds, b.MaxReplans)
	case v.Success != (v.Result != nil) || v.Success != (v.Reason == ""):
		return fmt.Errorf("inconsistent verdict: success %v, result %v, reason %q", v.Success, v.Result != nil, v.Reason)
	}
	return nil
}

// digest renders every field of a Verdict, the escalation result
// included, so two verdicts are equal exactly when their digests are.
func digest(v bench.Verdict) string {
	var r bench.EscalationResult
	if v.Result != nil {
		r = *v.Result
	}
	v.Result = nil
	return fmt.Sprintf("%+v %+v", v, r)
}
