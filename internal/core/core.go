// Package core is the deterministic interleaver underneath the
// simulator's multi-core mode: it drives N per-core access streams,
// each as an iter.Pull coroutine, while granting execution to exactly
// one stream at a time — always the stream whose logical clock is
// lowest, ties broken by lowest core index. The sweep engine already
// established the repo's concurrency contract (worker count changes
// wall-clock time and nothing else, via per-shard seeds); this package
// extends the same contract to cores that share mutable state: the
// schedule is a pure function of the streams' logical clocks, so the
// merged interleaving — and therefore every piece of shared simulator
// state the streams touch (LLC contents, DRAM activation counters,
// flip-engine reports) — is bit-identical for any GOMAXPROCS value.
//
// The handshake is strictly serial: a grant is one call of the
// stream's pull function, a coroutine switch that runs the stream
// until its next yield (or its end) and switches back before the
// scheduler picks again. Exactly one stream executes simulator code
// at any instant, on behalf of Run's caller, and every switch is a
// happens-before edge, so the interleaver is race-clean by
// construction — the property the CI multicore leg pins under -race.
// Separate Run calls are independent: callers may run them in
// parallel when their streams share no state (internal/cohort runs
// one per unit).
//
// Because grants always go to the lowest clock, the sequence of clock
// values observed at grant time is nondecreasing: shared devices see
// simulated time move forward monotonically even though each core
// carries its own clock. Devices that latch a start-of-window
// timestamp (the DRAM refresh window) still guard against a reading
// from a core that has not caught up yet; see dram.rotateWindow.
package core

import (
	"iter"

	"pthammer/internal/timing"
)

// Stream is one core's access stream under the interleaver.
type Stream struct {
	// Now reports the core's logical clock — for a machine core, the
	// core's timing.Clock.Now. The scheduler calls it only while the
	// stream is parked, so implementations need no synchronisation.
	Now func() timing.Cycles

	// Run is the stream body. It must call yield() between quanta —
	// every point at which the scheduler may hand execution to another
	// core — and may simply return when the stream is done. Touching
	// shared simulator state without an intervening yield is safe (the
	// quantum is atomic) but delays other cores whose clocks are
	// behind, so keep quanta small: one hammer iteration, one batch of
	// loads, one scan.
	Run func(yield func())
}

// streamAbort is the sentinel a suspended stream's yield panics with
// when Run stops it during teardown after another stream's body
// panicked. The unwind runs the stream's own deferred cleanup inside
// its coroutine — exactly what a cooperating body expects — and is
// recovered by Run, never escaping to the user.
type streamAbort struct{}

// Run executes the streams to completion under the deterministic
// schedule and returns the grant log: the core index granted at each
// scheduling decision, in order. The log is itself part of the
// determinism contract (tests diff it across GOMAXPROCS values);
// callers that only want the side effects can discard it.
//
// Run panics on a stream with a nil Now or Run — a wiring bug, not a
// runtime condition.
//
// A panic inside a stream body surfaces from the grant that ran it.
// Run then stops every other live stream, so each suspended body
// unwinds through its deferred cleanup (its yield panics a private
// sentinel), and re-panics the original value on the caller's
// goroutine. The first panicking stream wins; panics raised by cleanup
// during the unwind are swallowed in favour of the original.
func Run(streams []Stream) []int {
	n := len(streams)
	if n == 0 {
		return nil
	}
	for _, s := range streams {
		if s.Now == nil || s.Run == nil {
			panic("core: stream needs both Now and Run")
		}
	}

	nexts := make([]func() (struct{}, bool), n)
	stops := make([]func(), n)
	for i, s := range streams {
		nexts[i], stops[i] = iter.Pull(func(yield func(struct{}) bool) {
			s.Run(func() {
				if !yield(struct{}{}) {
					panic(streamAbort{})
				}
			})
		})
	}
	// On a normal return every stream has finished and stop is a no-op;
	// on a panic (from a body or a Now) this is the teardown.
	defer func() {
		r := recover()
		for _, stop := range stops {
			stopQuietly(stop)
		}
		if r != nil {
			panic(r)
		}
	}()

	done := make([]bool, n)
	var log []int
	for remaining := n; remaining > 0; {
		best := -1
		var bestT timing.Cycles
		for i := 0; i < n; i++ {
			if done[i] {
				continue
			}
			t := streams[i].Now()
			// Strict < implements the fixed tiebreak: equal clocks go
			// to the lowest core index.
			if best == -1 || t < bestT {
				best, bestT = i, t
			}
		}
		log = append(log, best)
		if _, ok := nexts[best](); !ok {
			done[best] = true
			remaining--
		}
	}
	return log
}

// stopQuietly stops one stream, swallowing whatever its unwind panics
// with: the streamAbort sentinel, or a panic from its cleanup.
func stopQuietly(stop func()) {
	defer func() { _ = recover() }()
	stop()
}
