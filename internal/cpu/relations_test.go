package cpu

import (
	"reflect"
	"testing"

	"repro/internal/stats"
	"repro/internal/workloads"
)

// measureRegion runs w on the 4-wide machine under cfg: 20k instructions
// of detailed warm-up, then a 60k-instruction measured region. It returns
// the region's counters.
func measureRegion(t *testing.T, w *workloads.Workload, cfg Config, slices bool) stats.Sim {
	t.Helper()
	table := w.SliceTable()
	if !slices {
		table = nil
	}
	c := MustNew(cfg, w.Image, w.NewMemory(), w.Entry, table)
	c.Run(20_000)
	c.ResetStats()
	s := *c.Run(60_000)
	if s.CycleGuardHits != 0 || s.MainRetired < 60_000 {
		t.Fatalf("slices=%t: region truncated (%d retired, %d guard hits)", slices, s.MainRetired, s.CycleGuardHits)
	}
	return s
}

// TestTimingRelations checks two metamorphic relations of the timing
// model on all 12 workloads. Each pairs runs that must agree, so a
// failure is an accounting leak, not a tolerance to widen.
//
//   - R1: with one thread context every fork is ignored, so the slice
//     table may cost the main thread nothing: apart from ForksIgnored,
//     every counter (per-PC records included) equals the run without
//     slices.
//   - R2: with every branch and load perfect, nothing mispredicts, no
//     wrong path is fetched and no load misses, with or without slices.
func TestTimingRelations(t *testing.T) {
	for _, w := range workloads.All() {
		t.Run(w.Name, func(t *testing.T) {
			one := Config4Wide()
			one.ThreadContexts = 1
			base := measureRegion(t, w, one, false)
			sliced := measureRegion(t, w, one, true)
			if sliced.ForksIgnored == 0 {
				t.Error("R1: no fork reached the slice table; the relation is vacuous")
			}
			sliced.ForksIgnored = 0
			if !reflect.DeepEqual(base, sliced) {
				t.Errorf("R1: the slice table moved the main thread with every fork ignored:\nwithout %+v\nwith    %+v",
					withoutStatic(base), withoutStatic(sliced))
			}

			perfect := Config4Wide()
			perfect.Perfect = Perfect{AllBranches: true, AllLoads: true}
			for _, slices := range []bool{false, true} {
				s := measureRegion(t, w, perfect, slices)
				if s.Mispredicts != 0 || s.IndirectMisses != 0 || s.MainWrongPath != 0 || s.LoadMisses != 0 {
					t.Errorf("R2 (slices=%t): %d mispredicts, %d indirect misses, %d wrong-path fetches, %d load misses; want 0",
						slices, s.Mispredicts, s.IndirectMisses, s.MainWrongPath, s.LoadMisses)
				}
			}
		})
	}
}

// withoutStatic drops the per-PC map so a failure prints the totals.
func withoutStatic(s stats.Sim) stats.Sim {
	s.Static = nil
	return s
}
