package cohort

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"pthammer/internal/flip"
	"pthammer/internal/machine"
)

// populationDigest hashes a population's merged statistics and every
// tenant outcome, in tenant order.
func populationDigest(pop Population, outs []Outcome) string {
	h := sha256.New()
	fmt.Fprintf(h, "%+v\n", pop)
	for _, o := range outs {
		fmt.Fprintf(h, "%+v\n", o)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// pinSpec is the population each pinned digest covers.
func pinSpec(class flip.Profile, seed int64) Spec {
	return Spec{Profile: class, Tenants: 32, Seed: seed, Windows: 3}
}

// pinnedPopulations are the RunDetailed digests per layout and class
// for seeds 1 and 2 under pinSpec, recorded with the goroutine-and-
// channel interleaver that ran every unit of a slice under one
// schedule. Units share no simulated state, so running each unit's
// tenants on its own schedule must not change a single outcome.
var pinnedPopulations = map[string][2]string{
	"interleaved/A": {"f0739279bd0e4f4b", "10f5c702fef76f7a"},
	"interleaved/B": {"ece5c435aebd7a89", "5c633901a5d5067f"},
	"interleaved/C": {"933b8e0085e77a75", "4357d9a3654e9b86"},
	"blocked/A":     {"0effdc89358ee63b", "24da37d0bac10dea"},
	"blocked/B":     {"a695a6dc2704af36", "228a71d387894c53"},
	"blocked/C":     {"50c1627c40f2f4c3", "7f7e55e5ffcbedb6"},
}

// TestPopulationMatchesPinnedDigests pins population outcomes across
// code changes, not just across two runs of the same code.
func TestPopulationMatchesPinnedDigests(t *testing.T) {
	for _, layout := range []machine.TableLayout{machine.LayoutInterleaved, machine.LayoutBlocked} {
		p, err := NewPool(8, layout)
		if err != nil {
			t.Fatal(err)
		}
		for _, class := range []flip.Profile{flip.ClassA(), flip.ClassB(), flip.ClassC()} {
			key := fmt.Sprintf("%v/%s", layout, class.Name)
			want, ok := pinnedPopulations[key]
			if !ok {
				t.Errorf("no pinned digests for %s", key)
			}
			for i, seed := range []int64{1, 2} {
				pop, outs, err := p.RunDetailed(pinSpec(class, seed))
				if err != nil {
					t.Fatal(err)
				}
				if got := populationDigest(pop, outs); got != want[i] {
					t.Errorf("%s seed %d: digest %s, want %s\n%+v", key, seed, got, want[i], pop)
				}
			}
		}
	}
}

// TestOutcomesIndependentOfProcsAndPool runs one population at every
// GOMAXPROCS × pool-size combination CI byte-compares the tables
// across, and requires every tenant's outcome to match.
func TestOutcomesIndependentOfProcsAndPool(t *testing.T) {
	spec := Spec{Profile: flip.ClassA(), Tenants: 19, Seed: 5, Windows: 2}
	var pools []*Pool
	for _, frontEnds := range []int{2, 8} {
		p, err := NewPool(frontEnds, machine.LayoutInterleaved)
		if err != nil {
			t.Fatal(err)
		}
		pools = append(pools, p)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var refPop Population
	var refOuts []Outcome
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, p := range pools {
			pop, outs, err := p.RunDetailed(spec)
			if err != nil {
				t.Fatal(err)
			}
			if refOuts == nil {
				refPop, refOuts = pop, outs
				continue
			}
			if !reflect.DeepEqual(outs, refOuts) || pop != refPop {
				t.Errorf("GOMAXPROCS=%d pool=%d: outcomes diverge\n got %+v\nwant %+v", procs, p.FrontEnds(), pop, refPop)
			}
		}
	}
}
