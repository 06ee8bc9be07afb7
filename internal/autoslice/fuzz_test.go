package autoslice

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/mem"
	"repro/internal/progen"
	"repro/internal/slicehw"
)

// FuzzAutoslice drives the whole constructor over progen's random
// terminating programs: trace collection, clustering, fork selection, and
// slice building must never panic, and every successfully built slice
// must respect the construction bounds and the slice-hardware invariants.
func FuzzAutoslice(f *testing.F) {
	for seed := int64(0); seed < 12; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		im, entry, init := progen.Program(rng)
		m := mem.New()
		init(m)
		tr, err := CollectTrace(im, m, entry, 20_000)
		if err != nil {
			t.Fatalf("trace over a progen program failed: %v", err)
		}

		// Problem set: every load and conditional branch the trace saw.
		set := make(map[uint64]bool)
		for i := range tr.entries {
			e := &tr.entries[i]
			if e.in.IsLoad() || e.in.IsCondBranch() {
				set[e.pc] = true
			}
		}
		pcs := make([]uint64, 0, len(set))
		for pc := range set {
			pcs = append(pcs, pc)
		}
		sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
		if len(pcs) > 12 {
			pcs = pcs[:12]
		}
		if len(pcs) == 0 {
			return
		}

		groups, skipped := ClusterProblemPCs(tr, pcs, 50)
		if len(skipped) != 0 {
			t.Errorf("PCs taken from the trace reported as skipped: %v", skipped)
		}
		for gi, g := range groups {
			if gi >= 3 {
				break
			}
			cands := SelectForkPoint(tr, g, 10, 80)
			for ci := 0; ci < len(cands) && ci < 3; ci++ {
				built, err := Build(tr, cands[ci].PC, g, SliceBase)
				if err != nil {
					continue // bounded-out or unsliceable: fine, just no panic
				}
				sl := built.Slice
				if sl.StaticSize > MaxSliceLen {
					t.Errorf("slice %d insts exceeds MaxSliceLen %d", sl.StaticSize, MaxSliceLen)
				}
				if len(sl.LiveIns) > MaxLiveIns {
					t.Errorf("live-ins %v exceed MaxLiveIns %d", sl.LiveIns, MaxLiveIns)
				}
				cp := *sl // NewTable assigns Index; don't mutate the original
				if _, err := slicehw.NewTable([]*slicehw.Slice{&cp}); err != nil {
					t.Errorf("built slice violates slicehw invariants: %v", err)
				}
			}
		}
	})
}
