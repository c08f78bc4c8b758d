package bench

import (
	"fmt"
	"math/bits"
	"reflect"
	"sort"
	"testing"

	"pthammer/internal/evset"
	"pthammer/internal/flip"
	"pthammer/internal/machine"
	"pthammer/internal/pagetable"
	"pthammer/internal/phys"
)

// escalationSeed is the fixed seed the acceptance tests (and the CI
// smoke run) use; the whole attack is deterministic per seed.
const escalationSeed = 1

// TestImplicitHammerStartsFromZeroPressure pins the fresh-window
// contract: construction traffic (aggressor discovery's
// demand-allocation loads and the eviction-set build probes) is
// scrubbed from the activation bookkeeping, so a freshly built hammer
// measures only its own activity.
func TestImplicitHammerStartsFromZeroPressure(t *testing.T) {
	m := machine.MustNew(hammerConfig())
	if _, ok := FindImplicitAggressors(m, 256); !ok {
		t.Fatal("no aggressor pair")
	}
	if s := m.HammerStats(); s.Activations != 0 || len(s.Victims) != 0 {
		t.Fatalf("pressure after FindImplicitAggressors: %+v, want zero", s)
	}

	m2 := machine.MustNew(hammerConfig())
	h, err := NewImplicitHammer(m2, 256, evset.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s := m2.HammerStats(); s.Activations != 0 || len(s.Victims) != 0 {
		t.Fatalf("pressure after NewImplicitHammer: %+v, want zero", s)
	}
	// The first iteration's pressure is then exactly the loop's own.
	h.HammerOnce(m2)
	if s := m2.HammerStats(); s.Activations == 0 {
		t.Fatal("hammer iteration recorded no activations")
	}
}

// TestPlanEscalationLayout checks the attacker's layout invariants:
// the pair is double-sided over a victim row that holds sprayed leaf
// page tables, the jackpot surface is non-empty, and the eviction
// streams exclude every page mapped by a hammered-row table.
func TestPlanEscalationLayout(t *testing.T) {
	model := flip.MustNewModel(flip.ClassA(), escalationSeed)
	m := machine.MustNew(EscalationConfig(model))
	plan, err := PlanEscalation(m)
	if err != nil {
		t.Fatal(err)
	}
	pair := plan.Pair
	if pair.Loc1.Bank != pair.Loc2.Bank || pair.Loc2.Row-pair.Loc1.Row != 2 {
		t.Fatalf("pair not double-sided same-bank: %+v / %+v", pair.Loc1, pair.Loc2)
	}
	if len(plan.VictimRegions) == 0 || plan.Sprayable == 0 {
		t.Fatalf("plan has no sprayable victim tables: regions=%d sprayable=%d",
			len(plan.VictimRegions), plan.Sprayable)
	}
	// Every sprayed page is mapped and excluded from stream candidacy.
	excluded := make(map[phys.Addr]bool, len(plan.Exclude))
	for _, a := range plan.Exclude {
		excluded[a] = true
	}
	for _, s := range plan.Spray {
		if f, ok := m.PageTables().Resolve(s); !ok || f != phys.FrameOf(s) {
			t.Fatalf("sprayed page %#x not identity-mapped", uint64(s))
		}
		if !excluded[s] {
			t.Fatalf("sprayed page %#x not in the stream exclusion set", uint64(s))
		}
	}
	// The thrash stream covers every sTLB set at full associativity.
	cfg := m.Config().TLB
	sets := uint64(cfg.L2Entries / cfg.L2Ways)
	perSet := make(map[uint64]int)
	for _, a := range plan.Thrash {
		perSet[(uint64(a)>>phys.FrameShift)%sets]++
	}
	for s := uint64(0); s < sets; s++ {
		if perSet[s] < cfg.L2Ways {
			t.Fatalf("thrash stream hits sTLB set %d only %d times, want ≥ %d", s, perSet[s], cfg.L2Ways)
		}
	}
}

// TestEscalationEndToEnd is the PR's acceptance test: eviction-driven
// hammering with zero privileged operations produces a model-driven
// flip in a page-table frame, the attacker detects it by Translate
// divergence, and the demo rewrites a PTE through the corrupted
// mapping — ending with an attacker marker in a kernel frame.
func TestEscalationEndToEnd(t *testing.T) {
	m, plan, h, err := BuildEscalation(flip.ClassA(), escalationSeed)
	if err != nil {
		t.Fatal(err)
	}
	flushes0, invlpgs0 := m.PrivilegedOps()

	res, err := RunEscalation(m, h, plan, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalFlips == 0 || res.FirstFlipIter == 0 {
		t.Fatalf("escalated without flips: %+v", res)
	}

	// Every flip landed in the planned victim row: the page-table row
	// sandwiched between the aggressor PTE rows. (Hammer side-traffic
	// pressures other rows too, but those are unwritten user frames —
	// holes — which the flip model cannot corrupt.)
	geom := m.DRAM().Config()
	for _, f := range m.Flips() {
		loc := geom.Map(f.Addr)
		if loc.Channel != plan.Pair.Loc1.Channel || loc.Rank != plan.Pair.Loc1.Rank ||
			loc.Bank != plan.Pair.Loc1.Bank || loc.Row != plan.Pair.VictimRow {
			t.Fatalf("flip outside the victim row: %+v decodes to %+v", f, loc)
		}
	}

	// Detection was real divergence: the corrupted page no longer
	// translates to its identity frame but to the page-table frame.
	if got, _ := m.Translate(res.CorruptVA); got != res.TableFrame {
		t.Fatalf("corrupt VA translates to %#x, want table frame %#x", uint64(got), uint64(res.TableFrame))
	}
	if res.TableFrame == phys.FrameOf(res.CorruptVA) {
		t.Fatal("corrupt VA still identity-mapped")
	}
	// The table frame is inside the kernel's table pool.
	base, frames := m.PageTables().Region()
	if res.TableFrame < base || res.TableFrame >= base+phys.Frame(frames) {
		t.Fatalf("table frame %#x outside the kernel pool", uint64(res.TableFrame))
	}

	// The rewrite went through the corrupted mapping into the real
	// tables: the reference resolver agrees the attacker page now maps
	// the kernel frame, and the marker store landed there.
	if got, ok := m.PageTables().Resolve(res.RewrittenVA); !ok || got != res.SecretFrame {
		t.Fatalf("rewritten VA resolves %#x/%v, want secret frame %#x", uint64(got), ok, uint64(res.SecretFrame))
	}
	if got := m.Memory().Read64(res.SecretFrame.Addr()); got != escalationMarker {
		t.Fatalf("kernel frame holds %#x, want the attacker marker %#x", got, uint64(escalationMarker))
	}

	// The whole attack — construction, hammering, detection, exploit —
	// used no privileged operation.
	if f, inv := m.PrivilegedOps(); f != flushes0 || inv != invlpgs0 || f != 0 || inv != 0 {
		t.Fatalf("privileged ops used: flushes=%d invlpg=%d", f, inv)
	}
}

// TestEscalationDeterministicPerSeed: the same (profile, seed) run
// twice produces an identical result — the property the CI smoke run
// and the committed tables rely on.
func TestEscalationDeterministicPerSeed(t *testing.T) {
	a, err := RunEscalationDemo(flip.ClassA(), escalationSeed, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunEscalationDemo(flip.ClassA(), escalationSeed, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed diverged:\n%+v\nvs\n%+v", a, b)
	}
	c, err := RunEscalationDemo(flip.ClassA(), escalationSeed+1, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Fatal("different seeds produced identical escalations")
	}
}

// TestRunFlipRateDeterministicAndOrdered: the fixed-budget flip-rate
// runs behind cmd/pthammer-flip are reproducible, and the module
// classes flip in vulnerability order.
func TestRunFlipRateDeterministicAndOrdered(t *testing.T) {
	const iters = 4000
	a1, err := RunFlipRate(flip.ClassA(), escalationSeed, iters)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := RunFlipRate(flip.ClassA(), escalationSeed, iters)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatalf("flip-rate run diverged:\n%+v\nvs\n%+v", a1, a2)
	}
	if a1.Flips == 0 || a1.FirstFlipIter == 0 {
		t.Fatalf("class A produced no flips in %d iterations: %+v", iters, a1)
	}
	c, err := RunFlipRate(flip.ClassC(), escalationSeed, iters)
	if err != nil {
		t.Fatal(err)
	}
	if c.Flips > a1.Flips {
		t.Fatalf("class C (%d flips) out-flipped class A (%d)", c.Flips, a1.Flips)
	}
	if a1.FlipsPerMillionIters() <= 0 {
		t.Fatalf("rate = %v, want positive", a1.FlipsPerMillionIters())
	}
}

// TestEscalationPlannerRanksPairs pins the contract the replan tier
// depends on: the demo machine exposes several viable aggressor pairs,
// ranked by sprayable-table count, on distinct victim rows, and the
// planner reports exhaustion with an error rather than repeating one.
func TestEscalationPlannerRanksPairs(t *testing.T) {
	model := flip.MustNewModel(flip.ClassA(), escalationSeed)
	m := machine.MustNew(EscalationConfig(model))
	planner, err := NewEscalationPlanner(m)
	if err != nil {
		t.Fatal(err)
	}
	if planner.Remaining() < 2 {
		t.Fatalf("only %d candidate pairs — the replan tier would be dead code", planner.Remaining())
	}
	rows := make(map[uint64]bool)
	lastSprayable := -1
	for planner.Remaining() > 0 {
		plan, err := planner.Next()
		if err != nil {
			t.Fatal(err)
		}
		row := plan.Pair.Loc1.Row + 1
		if rows[row] {
			t.Fatalf("victim row %d planned twice", row)
		}
		rows[row] = true
		if lastSprayable >= 0 && plan.Sprayable > lastSprayable {
			t.Fatalf("ranking not by sprayable count: %d after %d", plan.Sprayable, lastSprayable)
		}
		lastSprayable = plan.Sprayable
	}
	if _, err := planner.Next(); err == nil {
		t.Fatal("exhausted planner handed out another plan")
	}
}

// referencePairs is the planner's original ranking, kept as the oracle
// the memoized one must match pair for pair: a frame→region map lookup
// per (page, frame bit), each region's jackpot count recomputed for
// every pair whose victim row holds it, and two geom.Map calls per
// (i, j).
func referencePairs(m *machine.Machine) ([]pairCand, error) {
	span := pagetable.Span(2)
	geom := m.DRAM().Config()
	poolBase, _ := m.PageTables().Region()
	limit := poolBase.Addr()

	var cands []regionCand
	for k := 0; k < escalationSeedRegions && phys.Addr(uint64(k)*span) < limit; k++ {
		va := phys.Addr(uint64(k) * span)
		m.Load(va)
		if pte, ok := m.PTEAddr(va, 1); ok {
			cands = append(cands, regionCand{va: va, pte: pte})
		}
	}
	ptOf := make(map[phys.Frame]phys.Addr)
	for va := phys.Addr(0); va < limit; va += phys.Addr(span) {
		if pte, ok := m.PTEAddr(va, 1); ok {
			ptOf[phys.FrameOf(pte)] = va
		}
	}
	frameBits := bits.Len64(m.Memory().Frames() - 1)
	sprayableIn := func(base phys.Addr) int {
		n := 0
		first := phys.FrameOf(base)
		for p := uint64(0); p < span/phys.FrameSize; p++ {
			f := first + phys.Frame(p)
			for j := 0; j < frameBits; j++ {
				if _, ok := ptOf[f^phys.Frame(1)<<j]; ok {
					n++
				}
			}
		}
		return n
	}

	var pairs []pairCand
	type rowKey struct {
		channel, rank, bank int
		row                 uint64
	}
	seen := make(map[rowKey]bool)
	for i := range cands {
		for j := i + 1; j < len(cands); j++ {
			a, b := geom.Map(cands[i].pte), geom.Map(cands[j].pte)
			if !sameBank(a, b) {
				continue
			}
			lo, hi := cands[i], cands[j]
			loLoc, hiLoc := a, b
			if loLoc.Row > hiLoc.Row {
				lo, hi = hi, lo
				loLoc, hiLoc = hiLoc, loLoc
			}
			if hiLoc.Row-loLoc.Row != 2 {
				continue
			}
			victimRow := loLoc.Row + 1
			key := rowKey{loLoc.Channel, loLoc.Rank, loLoc.Bank, victimRow}
			if seen[key] {
				continue
			}
			start, rowBytes := geom.RowRange(loLoc.Channel, loLoc.Rank, loLoc.Bank, victimRow)
			var victims []phys.Addr
			sprayable := 0
			for f := phys.FrameOf(start); f <= phys.FrameOf(start+phys.Addr(rowBytes-1)); f++ {
				if base, ok := ptOf[f]; ok {
					victims = append(victims, base)
					sprayable += sprayableIn(base)
				}
			}
			if sprayable == 0 {
				continue
			}
			seen[key] = true
			pairs = append(pairs, pairCand{
				lo: lo, hi: hi, loLoc: loLoc, hiLoc: hiLoc,
				victimRow: victimRow, victims: victims, sprayable: sprayable,
			})
		}
	}
	if len(pairs) == 0 {
		return nil, fmt.Errorf("bench: no sprayable aggressor pair within %d regions", escalationSeedRegions)
	}
	sort.SliceStable(pairs, func(i, j int) bool {
		return pairs[i].sprayable > pairs[j].sprayable
	})
	return pairs, nil
}

// rowsConfig is the demo machine with rows DRAM rows per bank and the
// memory resized to match, so the frame count follows the row count.
func rowsConfig(profile flip.Profile, rows uint64) machine.Config {
	cfg := EscalationConfig(flip.MustNewModel(profile, escalationSeed))
	cfg.DRAM.Rows = rows
	cfg.MemBytes = cfg.DRAM.Capacity()
	return cfg
}

// TestPlannerMatchesReference: the memoized, bitset-backed planner
// ranks exactly the pairs the reference ranking does, in the same
// order, every field included. The non-power-of-two row counts give
// frame counts where a high-bit flip points past the last frame — the
// bitset's bound check — and rows=1000 yields no pair at all, where
// both must fail the same way.
func TestPlannerMatchesReference(t *testing.T) {
	cases := []struct {
		name  string
		cfg   func() machine.Config
		pairs bool // the geometry yields at least one pair
	}{
		{"class A", func() machine.Config { return EscalationConfig(flip.MustNewModel(flip.ClassA(), escalationSeed)) }, true},
		{"class B", func() machine.Config { return EscalationConfig(flip.MustNewModel(flip.ClassB(), escalationSeed)) }, true},
		{"class C", func() machine.Config { return EscalationConfig(flip.MustNewModel(flip.ClassC(), escalationSeed)) }, true},
		{"rows 8000", func() machine.Config { return rowsConfig(flip.ClassA(), 8000) }, true},
		{"rows 4097", func() machine.Config { return rowsConfig(flip.ClassB(), 4097) }, true},
		{"rows 1000", func() machine.Config { return rowsConfig(flip.ClassC(), 1000) }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := machine.MustNew(tc.cfg())
			want, wantErr := referencePairs(machine.MustNew(tc.cfg()))
			got, gotErr := NewEscalationPlanner(m)
			if tc.pairs != (wantErr == nil) {
				t.Fatalf("reference pairs %d, err %v; geometry expected to yield pairs: %v", len(want), wantErr, tc.pairs)
			}
			if wantErr != nil {
				if gotErr == nil || gotErr.Error() != wantErr.Error() {
					t.Fatalf("planner error %v, reference error %v", gotErr, wantErr)
				}
				return
			}
			if gotErr != nil {
				t.Fatalf("planner failed where the reference ranked %d pairs: %v", len(want), gotErr)
			}
			if !reflect.DeepEqual(got.pairs, want) {
				t.Fatalf("ranked pairs differ from the reference:\n got %+v\nwant %+v", got.pairs, want)
			}
		})
	}
}

// TestPTIndexBounds: the frame bitset agrees with the frame→region
// map, and frames at or past the end of memory — where a flip of the
// top frame bit lands when the frame count is not a power of two —
// are never tables.
func TestPTIndexBounds(t *testing.T) {
	m := machine.MustNew(rowsConfig(flip.ClassA(), 4097))
	if _, err := NewEscalationPlanner(m); err != nil {
		t.Fatal(err)
	}
	n := m.Memory().Frames()
	if n&(n-1) == 0 {
		t.Fatalf("frame count %d is a power of two; the bound goes unexercised", n)
	}
	x := leafPTs(m)
	set := 0
	for _, w := range x.bits {
		set += bits.OnesCount64(w)
	}
	if set != len(x.region) || set == 0 {
		t.Fatalf("bitset holds %d frames, region map %d", set, len(x.region))
	}
	for f := range x.region {
		if !x.has(f) {
			t.Fatalf("table frame %#x missing from the bitset", uint64(f))
		}
	}
	top := phys.Frame(1)<<bits.Len64(n-1) - 1
	for _, f := range []phys.Frame{phys.Frame(n), phys.Frame(n) + 64, top} {
		if x.has(f) {
			t.Fatalf("frame %#x past the last frame %#x reported as a table", uint64(f), n-1)
		}
	}
}
