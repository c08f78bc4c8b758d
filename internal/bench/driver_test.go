package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"

	"pthammer/internal/fault"
	"pthammer/internal/flip"
)

func TestBudgetValidate(t *testing.T) {
	cases := []struct {
		name string
		b    Budget
		ok   bool
	}{
		{"default", DefaultBudget(), true},
		{"zero attempt", Budget{MaxWindows: 100}, false},
		{"budget below one attempt", Budget{MaxWindows: 10, AttemptWindows: 64}, false},
		{"overflowing backoff", Budget{MaxWindows: 100, AttemptWindows: 64, MaxBackoff: 40}, false},
		{"tight but legal", Budget{MaxWindows: 64, AttemptWindows: 64}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.b.Validate()
			if tc.ok && err != nil {
				t.Fatalf("Validate(%+v) = %v, want nil", tc.b, err)
			}
			if !tc.ok && err == nil {
				t.Fatalf("Validate(%+v) succeeded, want error", tc.b)
			}
		})
	}
}

func TestResilientMisuseErrors(t *testing.T) {
	if _, err := RunEscalationResilient(flip.ClassA(), 1, nil, Budget{}); err == nil {
		t.Fatal("degenerate budget accepted")
	}
	if _, err := RunEscalationResilient(flip.Profile{}, 1, nil, DefaultBudget()); err == nil {
		t.Fatal("degenerate profile accepted")
	}
	bad := &fault.Config{Class: "cosmic-ray"}
	if _, err := RunEscalationResilient(flip.ClassA(), 1, bad, DefaultBudget()); err == nil {
		t.Fatal("unknown fault class accepted")
	}
}

// TestResilientFaultFreeSucceeds pins the golden path through the
// driver: same machine as the single-shot demo, so the run must
// escalate, carry a complete Result, and never touch a privileged op.
func TestResilientFaultFreeSucceeds(t *testing.T) {
	v, err := RunEscalationResilient(flip.ClassA(), escalationSeed, nil, DefaultBudget())
	if err != nil {
		t.Fatal(err)
	}
	if !v.Success {
		t.Fatalf("fault-free run failed: %+v", v)
	}
	if v.Phase != PhaseExploit || v.Reason != "" {
		t.Fatalf("success verdict phase/reason = %s/%s", v.Phase, v.Reason)
	}
	if v.Result == nil || v.Result.SecretFrame == 0 || v.Result.CorruptVA == 0 {
		t.Fatalf("success verdict missing escalation result: %+v", v.Result)
	}
	if v.Windows > DefaultBudget().MaxWindows {
		t.Fatalf("windows %d exceed budget %d", v.Windows, DefaultBudget().MaxWindows)
	}
	if v.Result.Windows != v.Windows || v.Result.Iterations != v.Iterations {
		t.Fatalf("result accounting diverges from verdict: %+v vs %+v", v.Result, v)
	}
	if v.Flips == 0 || v.Iterations == 0 {
		t.Fatalf("success without work: %+v", v)
	}
	if v.PrivFlushes != 0 || v.PrivInvlpgs != 0 {
		t.Fatalf("privileged ops moved: %d flushes, %d invlpgs", v.PrivFlushes, v.PrivInvlpgs)
	}
	if v.Faults != (fault.Stats{}) {
		t.Fatalf("fault-free run reports faults: %+v", v.Faults)
	}
}

// TestResilientPairInvalidateReplans is the marquee recovery: the OS
// migrates the attacked table mid-run, the armed row stops flipping,
// and the driver recovers by replanning onto the next-ranked pair —
// still without one privileged operation.
func TestResilientPairInvalidateReplans(t *testing.T) {
	fc := &fault.Config{Class: fault.PairInvalidate}
	v, err := RunEscalationResilient(flip.ClassA(), 2, fc, DefaultBudget())
	if err != nil {
		t.Fatal(err)
	}
	if !v.Success {
		t.Fatalf("pair-invalidate run did not recover: %+v", v)
	}
	if v.Faults.PairsInvalidated != 1 || v.Faults.AttemptsSuppressed == 0 {
		t.Fatalf("fault did not fire: %+v", v.Faults)
	}
	if v.Replans == 0 {
		t.Fatalf("recovered without replanning: %+v", v)
	}
	if v.PrivFlushes != 0 || v.PrivInvlpgs != 0 {
		t.Fatalf("privileged ops moved: %d flushes, %d invlpgs", v.PrivFlushes, v.PrivInvlpgs)
	}
}

// TestResilientUnrecoverableAborts pins the structured-abort contract:
// a perfect TRR mitigation can never flip, so the driver must walk its
// tiers and return a tiers-exhausted verdict within budget — no hang,
// no panic, no error.
func TestResilientUnrecoverableAborts(t *testing.T) {
	fc := &fault.Config{Class: fault.TRRSuppress, SuppressRate: 1}
	v, err := RunEscalationResilient(flip.ClassA(), escalationSeed, fc, DefaultBudget())
	if err != nil {
		t.Fatal(err)
	}
	if v.Success {
		t.Fatal("escalation succeeded under a perfect TRR sampler")
	}
	if v.Reason != ReasonTiersExhausted {
		t.Fatalf("abort reason = %q, want %q", v.Reason, ReasonTiersExhausted)
	}
	if v.Windows > DefaultBudget().MaxWindows {
		t.Fatalf("abort spent %d windows, budget %d", v.Windows, DefaultBudget().MaxWindows)
	}
	if v.Faults.AttemptsSuppressed == 0 {
		t.Fatal("no suppressed attempt recorded — the fault never fired")
	}
	if v.Result != nil {
		t.Fatalf("failed verdict carries a result: %+v", v.Result)
	}
	if v.Flips != 0 {
		t.Fatalf("flips recorded under total suppression: %d", v.Flips)
	}
}

// TestResilientBudgetCeiling: with flips landing but never exploitable
// (total misland), the driver must stop at the window ceiling exactly.
func TestResilientBudgetCeiling(t *testing.T) {
	fc := &fault.Config{Class: fault.FlipMisland, MislandRate: 1}
	budget := Budget{MaxWindows: 200, AttemptWindows: 64, MaxBackoff: 2, MaxRebuilds: 1, MaxReplans: 1}
	v, err := RunEscalationResilient(flip.ClassA(), escalationSeed, fc, budget)
	if err != nil {
		t.Fatal(err)
	}
	if v.Success {
		t.Fatal("escalation succeeded under total misland")
	}
	if v.Windows > budget.MaxWindows {
		t.Fatalf("spent %d windows, ceiling %d", v.Windows, budget.MaxWindows)
	}
	if v.Reason != ReasonBudgetExhausted && v.Reason != ReasonTiersExhausted {
		t.Fatalf("unexpected abort reason %q", v.Reason)
	}
	if v.Faults.FlipsRedirected == 0 {
		t.Fatal("no redirected flip recorded — the fault never fired")
	}
}

// TestResilientDeterministicPerSeed: the verdict — every counter
// included — is a pure function of (profile, seed, fault config,
// budget).
func TestResilientDeterministicPerSeed(t *testing.T) {
	fc := &fault.Config{Class: fault.TRRSuppress}
	run := func() Verdict {
		v, err := RunEscalationResilient(flip.ClassA(), 4, fc, DefaultBudget())
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
}

// pinBudget is DefaultBudget with a 600-window ceiling: long enough
// for most pinned runs to escalate, the pair-invalidate run's replan
// onto the second-ranked pair included, short enough that the runs
// hammering to the ceiling keep the test fast under -race.
func pinBudget() Budget {
	b := DefaultBudget()
	b.MaxWindows = 600
	return b
}

// verdictDigest hashes every field of a Verdict, the pointed-to
// Result included, into 16 hex digits.
func verdictDigest(v Verdict) string {
	r := v.Result
	v.Result = nil
	s := fmt.Sprintf("%+v", v)
	if r != nil {
		s += fmt.Sprintf(" result=%+v", *r)
	}
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:8])
}

// pinnedVerdicts are the class-A Verdict digests per fault.Matrix()
// scenario for seeds 1 and 2 under pinBudget, recorded with the
// original map-based planner. The planner's ranking decides which
// pairs the driver hammers and replans onto, so any change to it that
// is not behaviour-preserving shows up here.
var pinnedVerdicts = map[string][2]string{
	"none":             {"b388ecdcc6f1d2ff", "28da82223c72304a"},
	"eviction-decay":   {"b388ecdcc6f1d2ff", "94d4728d5c1c8464"},
	"threshold-drift":  {"50f31d2c9afb1f96", "da28cb5e5c7a7f5c"},
	"trr-suppress":     {"6ab411a0f51a1c3a", "dffc807142616447"},
	"flip-misland":     {"8fb358f74bfdf922", "0330e37136c0f05a"},
	"pair-invalidate":  {"b388ecdcc6f1d2ff", "31a3d7aad4ff62bd"},
	"trr-suppress-all": {"f561746e970c6e7f", "f561746e970c6e7f"},
	"flip-misland-all": {"eaeefa9f0616839c", "0804ae448b4c9b5a"},
}

// TestResilientMatchesPinnedDigests pins escalation outcomes across
// code changes, not just across two runs of the same code.
func TestResilientMatchesPinnedDigests(t *testing.T) {
	for _, sc := range fault.Matrix() {
		want, ok := pinnedVerdicts[sc.Name]
		if !ok {
			t.Errorf("no pinned digests for scenario %q", sc.Name)
		}
		for i, seed := range []int64{1, 2} {
			v, err := RunEscalationResilient(flip.ClassA(), seed, sc.Config, pinBudget())
			if err != nil {
				t.Fatal(err)
			}
			if got := verdictDigest(v); got != want[i] {
				t.Errorf("%s seed %d: digest %s, want %s\n%+v", sc.Name, seed, got, want[i], v)
			}
		}
	}
}
