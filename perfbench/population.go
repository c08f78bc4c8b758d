package main

import (
	"fmt"
	"time"

	"pthammer/internal/cohort"
	"pthammer/internal/core"
	"pthammer/internal/flip"
	"pthammer/internal/machine"
	"pthammer/internal/timing"
)

const (
	// popFrontEnds builds a pool of four attacker/victim units, so each
	// slice runs four tenants under one interleaver.
	popFrontEnds = 8
	// popTenants is 12 slices of 4 tenants, ~60 ms an op on a 2-vCPU
	// Xeon host. An op's time is a mean over its tenants, which keeps
	// the op latency steady across seeds.
	popTenants = 48
	popWindows = 3
	// handoffStreams × handoffYields is the interleaver probe the traced
	// run drives: trivial streams that only yield, so its time per grant
	// is the interleaver's own handoff cost.
	handoffStreams = 16
	handoffYields  = 256
)

var popClasses = []flip.Profile{flip.ClassA(), flip.ClassB(), flip.ClassC()}

// populationWL is the shared-host setting: each op pushes one population
// of tenants through a cohort pool, cycling module classes A, B, C, each
// with a seed derived from the workload seed.
type populationWL struct {
	seed     int64
	pool     *cohort.Pool
	warm     cohort.Population
	last     cohort.Population
	pops     []cohort.Population // every op's population, in op order
	aggA     cohort.Population   // all class-A tenants of the run merged
	loads    uint64              // attacker loads over all traced tenants
	grants   int
	traceAgg cohort.Population
}

func (w *populationWL) spec(i int) cohort.Spec {
	return cohort.Spec{
		Profile: popClasses[i%len(popClasses)],
		Tenants: popTenants,
		Windows: popWindows,
		Seed:    mix(w.seed, uint64(i/len(popClasses))),
	}
}

// setup builds the pool and warms it with op 0's population.
func (w *populationWL) setup(seed int64, tr *tracer) error {
	w.seed = seed
	var err error
	spanned(tr, "cohort.new_pool", func() { w.pool, err = cohort.NewPool(popFrontEnds, machine.LayoutInterleaved) })
	if err != nil {
		return err
	}
	w.warm, err = w.pool.Run(w.spec(0))
	return err
}

func (w *populationWL) op(i int) error {
	var err error
	w.last, err = w.pool.Run(w.spec(i))
	return err
}

// check: the population's counts are consistent with each other and its
// spec, and op 0 reproduces the warm-up run of the same spec.
func (w *populationWL) check(i int) error {
	p, s := w.last, w.spec(i)
	switch {
	case p.Tenants != s.Tenants || p.Class != s.Profile.Name || p.Layout != machine.LayoutInterleaved:
		return fmt.Errorf("population %+v does not match spec %+v", p, s)
	case p.Breached > p.Tenants || p.Diluted > p.Tenants || p.TableFlips < p.Breached:
		return fmt.Errorf("inconsistent population %+v", p)
	case p.MeanPeakPressure > p.MaxPeakPressure || p.MeanIterations == 0:
		return fmt.Errorf("implausible population %+v", p)
	case i == 0 && p != w.warm:
		return fmt.Errorf("op 0 population %+v differs from the warm-up's %+v", p, w.warm)
	}
	w.pops = append(w.pops, p)
	if p.Class == flip.ClassA().Name {
		mergeInto(&w.aggA, p)
	}
	return nil
}

// finish: the run's merged class-A population is non-degenerate — some
// tenant breached, some but not all were diluted, and victim tables
// flipped. One op's 48 tenants at a ~5% breach rate can see no breach by
// chance, so the check is on the merged population, as the population
// tables report it.
func (w *populationWL) finish() error {
	a := w.aggA
	if a.Tenants == 0 {
		return nil
	}
	if a.Breached == 0 || a.Diluted == 0 || a.Diluted == a.Tenants || a.TableFlips == 0 {
		return fmt.Errorf("degenerate class-A population %+v", a)
	}
	return nil
}

func (w *populationWL) units() float64 { return popTenants }

func (w *populationWL) memOps() int { return 128 }

// traced repeats op i inside one cohort.run span, so its overhead is a
// single span's; then it runs the interleaver probe, which has no
// untraced twin.
func (w *populationWL) traced(tr *tracer, i int) (time.Duration, time.Duration, error) {
	var p cohort.Population
	var err error
	d := tr.do("cohort.run", func() { p, err = w.pool.Run(w.spec(i)) })
	if err != nil {
		return d, 0, err
	}
	if p != w.last {
		return d, 0, fmt.Errorf("traced population %+v differs from %+v", p, w.last)
	}
	mergeInto(&w.traceAgg, p)
	w.loads += p.MeanIterations * uint64(p.Tenants)
	tr.do("core.run", func() { w.grants += len(core.Run(yieldStreams())) })
	return d, 0, nil
}

// yieldStreams builds the interleaver probe: streams whose bodies only
// advance their own clock and yield.
func yieldStreams() []core.Stream {
	streams := make([]core.Stream, handoffStreams)
	for k := range streams {
		var clock timing.Cycles
		streams[k] = core.Stream{
			Now: func() timing.Cycles { return clock },
			Run: func(yield func()) {
				for j := 0; j < handoffYields; j++ {
					clock++
					yield()
				}
			},
		}
	}
	return streams
}

func (w *populationWL) layers(tr *tracer, _ int, put func(string, float64)) {
	a := w.traceAgg
	put("core.handoff_ns", float64(tr.totalOf("core.run").Nanoseconds())/float64(w.grants))
	put("cohort.attacker_loads_per_tenant", float64(w.loads)/float64(a.Tenants))
	put("cohort.breached_per_m", float64(a.BreachedPerM()))
	put("cohort.diluted_per_m", float64(a.DilutedPerM()))
	put("cohort.table_flips_per_m", float64(a.TableFlipsPerM()))
}

func (w *populationWL) counts() string { return fmt.Sprintf("%+v", w.pops) }

// mergeInto adds p's tenant counts to agg.
func mergeInto(agg *cohort.Population, p cohort.Population) {
	agg.Tenants += p.Tenants
	agg.Breached += p.Breached
	agg.Diluted += p.Diluted
	agg.TableFlips += p.TableFlips
}
