package core_test

import (
	"reflect"
	"runtime"
	"testing"

	"pthammer/internal/core"
	"pthammer/internal/timing"
)

// scripted is a fake core: each quantum advances its clock by the next
// scripted increment, and the stream finishes when the script runs out.
type scripted struct {
	clock timing.Cycles
	steps []timing.Cycles
}

func (s *scripted) stream() core.Stream {
	return core.Stream{
		Now: func() timing.Cycles { return s.clock },
		Run: func(yield func()) {
			for i, d := range s.steps {
				s.clock += d
				if i < len(s.steps)-1 {
					yield()
				}
			}
		},
	}
}

func TestLowestTimestampNext(t *testing.T) {
	// Core 0 takes big steps, core 1 small ones: after the opening
	// grants the scheduler must keep handing core 1 the CPU until its
	// clock passes core 0's.
	a := &scripted{steps: []timing.Cycles{100, 100}}
	b := &scripted{steps: []timing.Cycles{10, 10, 10, 10, 10}}
	log := core.Run([]core.Stream{a.stream(), b.stream()})
	// Both start at 0 → tiebreak gives core 0 the first grant (clock
	// 100). Core 1 then runs at 0,10,20,...: five grants before its
	// script ends at 50, still below 100, so core 0's final quantum
	// comes last.
	want := []int{0, 1, 1, 1, 1, 1, 0}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("grant log = %v, want %v", log, want)
	}
	if a.clock != 200 || b.clock != 50 {
		t.Fatalf("final clocks = %d, %d; want 200, 50", a.clock, b.clock)
	}
}

func TestTiebreakPicksLowestIndex(t *testing.T) {
	// Identical scripts: clocks are equal at every scheduling point, so
	// the fixed tiebreak must strictly alternate starting at core 0.
	mk := func() *scripted { return &scripted{steps: []timing.Cycles{5, 5, 5}} }
	log := core.Run([]core.Stream{mk().stream(), mk().stream(), mk().stream()})
	want := []int{0, 1, 2, 0, 1, 2, 0, 1, 2}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("grant log = %v, want %v", log, want)
	}
}

func TestSingleStreamAndImmediateReturn(t *testing.T) {
	ran := false
	log := core.Run([]core.Stream{{
		Now: func() timing.Cycles { return 0 },
		Run: func(yield func()) { ran = true },
	}})
	if !ran {
		t.Fatal("stream body never ran")
	}
	if !reflect.DeepEqual(log, []int{0}) {
		t.Fatalf("grant log = %v, want [0]", log)
	}
	if got := core.Run(nil); got != nil {
		t.Fatalf("Run(nil) = %v, want nil", got)
	}
}

func TestNilStreamPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Run accepted a stream with a nil Run")
		}
	}()
	core.Run([]core.Stream{{Now: func() timing.Cycles { return 0 }}})
}

// TestDeterministicAcrossGOMAXPROCS is the headline contract: the grant
// log (and the streams' final state) must be bit-identical no matter
// how much real parallelism the runtime has to play with.
func TestDeterministicAcrossGOMAXPROCS(t *testing.T) {
	run := func() ([]int, []timing.Cycles) {
		// Irregular, mutually prime step patterns so the schedule is
		// nontrivial.
		cores := []*scripted{
			{steps: []timing.Cycles{7, 13, 7, 13, 7, 13, 7, 13}},
			{steps: []timing.Cycles{11, 11, 11, 11, 11, 11}},
			{steps: []timing.Cycles{3, 3, 3, 29, 3, 3, 3, 29, 3}},
			{steps: []timing.Cycles{17, 2, 17, 2, 17, 2}},
		}
		streams := make([]core.Stream, len(cores))
		for i, c := range cores {
			streams[i] = c.stream()
		}
		log := core.Run(streams)
		finals := make([]timing.Cycles, len(cores))
		for i, c := range cores {
			finals[i] = c.clock
		}
		return log, finals
	}

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	refLog, refFinals := run()
	for _, p := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(p)
		log, finals := run()
		if !reflect.DeepEqual(log, refLog) {
			t.Fatalf("GOMAXPROCS=%d: grant log diverged:\n got %v\nwant %v", p, log, refLog)
		}
		if !reflect.DeepEqual(finals, refFinals) {
			t.Fatalf("GOMAXPROCS=%d: final clocks diverged: got %v want %v", p, finals, refFinals)
		}
	}
}

// TestZeroQuantumStreams: streams whose clocks never move still make
// progress and terminate. With permanently equal clocks the strict-<
// tiebreak keeps choosing the lowest live index, so core 0 runs to
// completion before core 1 gets its first grant.
func TestZeroQuantumStreams(t *testing.T) {
	mk := func() core.Stream {
		return core.Stream{
			Now: func() timing.Cycles { return 0 },
			Run: func(yield func()) {
				yield()
				yield()
			},
		}
	}
	log := core.Run([]core.Stream{mk(), mk()})
	want := []int{0, 0, 0, 1, 1, 1}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("grant log = %v, want %v", log, want)
	}
}

// TestSingleCoreGrantLog: a lone stream with several quanta gets every
// grant; the log length is quanta+1 (one grant per yield plus the
// initial one).
func TestSingleCoreGrantLog(t *testing.T) {
	s := &scripted{steps: []timing.Cycles{5, 5, 5, 5}}
	log := core.Run([]core.Stream{s.stream()})
	if !reflect.DeepEqual(log, []int{0, 0, 0, 0}) {
		t.Fatalf("grant log = %v", log)
	}
	if s.clock != 20 {
		t.Fatalf("final clock = %d, want 20", s.clock)
	}
}

// TestPanicPropagatesAfterTeardown is the interleaver's crash
// contract: a panic in one stream body must re-surface on the caller's
// goroutine with the original value — not crash the process from a
// stream goroutine — and every other live stream must first unwind
// through its deferred cleanup.
func TestPanicPropagatesAfterTeardown(t *testing.T) {
	n := 3
	cleaned := make([]bool, n)
	var streams []core.Stream
	for i := 0; i < n; i++ {
		i := i
		clock := timing.Cycles(0)
		streams = append(streams, core.Stream{
			Now: func() timing.Cycles { return clock },
			Run: func(yield func()) {
				defer func() { cleaned[i] = true }()
				for q := 0; ; q++ {
					clock += 10
					if i == 1 && q == 2 {
						panic("boom in core 1")
					}
					yield()
				}
			},
		})
	}
	defer func() {
		r := recover()
		if r != "boom in core 1" {
			t.Fatalf("recovered %v, want the original panic value", r)
		}
		for i, c := range cleaned {
			if !c {
				t.Errorf("core %d deferred cleanup never ran", i)
			}
		}
	}()
	core.Run(streams)
	t.Fatal("Run returned instead of panicking")
}

// TestPanicBeforeFirstYield: a body that panics in its very first
// quantum — including from a stream that never yields at all — still
// tears down cleanly.
func TestPanicBeforeFirstYield(t *testing.T) {
	other := &scripted{steps: []timing.Cycles{1, 1, 1, 1, 1, 1, 1, 1}}
	streams := []core.Stream{
		other.stream(),
		{
			Now: func() timing.Cycles { return 0 },
			Run: func(yield func()) { panic("instant") },
		},
	}
	defer func() {
		if r := recover(); r != "instant" {
			t.Fatalf("recovered %v, want \"instant\"", r)
		}
	}()
	core.Run(streams)
	t.Fatal("Run returned instead of panicking")
}

// TestTeardownSwallowsCleanupPanics: during teardown a stream whose
// cleanup panics cannot replace the original value, and a stream that
// recovers the abort and returns is simply done.
func TestTeardownSwallowsCleanupPanics(t *testing.T) {
	var clocks [3]timing.Cycles
	swallowed := false
	streams := make([]core.Stream, len(clocks))
	for i := range streams {
		streams[i] = core.Stream{
			Now: func() timing.Cycles { return clocks[i] },
			Run: func(yield func()) {
				switch i {
				case 0:
					defer func() { panic("cleanup") }()
				case 2:
					defer func() { swallowed = recover() != nil }()
				}
				for q := 0; ; q++ {
					clocks[i] += 10
					if i == 1 && q == 1 {
						panic("boom")
					}
					yield()
				}
			},
		}
	}
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want the original \"boom\"", r)
		}
		if !swallowed {
			t.Error("stream 2 never saw the abort sentinel")
		}
	}()
	core.Run(streams)
	t.Fatal("Run returned instead of panicking")
}

// TestPanicInNowTearsDown: a Now that panics is a scheduler-side
// panic; the live streams still unwind before it reaches the caller.
func TestPanicInNowTearsDown(t *testing.T) {
	cleaned := false
	var calls int
	streams := []core.Stream{
		{
			Now: func() timing.Cycles { return 0 },
			Run: func(yield func()) {
				defer func() { cleaned = true }()
				for {
					yield()
				}
			},
		},
		{
			Now: func() timing.Cycles {
				if calls++; calls == 3 {
					panic("bad clock")
				}
				return 1
			},
			Run: func(yield func()) {},
		},
	}
	defer func() {
		if r := recover(); r != "bad clock" {
			t.Fatalf("recovered %v, want \"bad clock\"", r)
		}
		if !cleaned {
			t.Error("stream 0 deferred cleanup never ran")
		}
	}()
	core.Run(streams)
	t.Fatal("Run returned instead of panicking")
}

// TestGrantClocksNondecreasing pins the property shared devices rely
// on: the clock of the granted core, read at grant time, never moves
// backwards across the schedule.
func TestGrantClocksNondecreasing(t *testing.T) {
	cores := []*scripted{
		{steps: []timing.Cycles{40, 1, 1, 1, 40}},
		{steps: []timing.Cycles{9, 9, 9, 9, 9, 9, 9, 9, 9}},
	}
	var granted []timing.Cycles
	streams := make([]core.Stream, len(cores))
	for i, c := range cores {
		c := c
		inner := c.stream()
		streams[i] = core.Stream{
			Now: inner.Now,
			Run: func(yield func()) {
				inner.Run(func() {
					yield()
					// Back from a grant: record the clock we resumed at.
					granted = append(granted, c.clock)
				})
			},
		}
	}
	core.Run(streams)
	for i := 1; i < len(granted); i++ {
		if granted[i] < granted[i-1] {
			t.Fatalf("grant-time clocks not nondecreasing: %v", granted)
		}
	}
}
