package cpu

import (
	"reflect"
	"testing"

	"repro/internal/slicehw"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// measureRegion runs w on the 4-wide machine under cfg with the given
// slice table (nil for none): 20k instructions of detailed warm-up, then a
// 60k-instruction measured region, ended by one Run or, with stops, by a
// Run to each stop first. It returns the region's snapshot.
func measureRegion(t *testing.T, w *workloads.Workload, cfg Config, table *slicehw.Table, stops ...uint64) stats.Snapshot {
	t.Helper()
	c := MustNew(cfg, w.Image, w.NewMemory(), w.Entry, table)
	c.Run(20_000)
	c.ResetStats()
	for _, n := range stops {
		c.Run(n) // Run's target is cumulative
	}
	s := c.Run(60_000)
	if s.CycleGuardHits != 0 || s.MainRetired < 60_000 {
		t.Fatalf("table=%t: region truncated (%d retired, %d guard hits)", table != nil, s.MainRetired, s.CycleGuardHits)
	}
	return c.Snapshot()
}

// TestTimingRelations checks five metamorphic relations of the timing
// model on all 12 workloads. Each pairs runs that must agree, so a
// failure is an accounting leak, not a tolerance to widen.
//
//   - R1: with one thread context every fork is ignored, so the slice
//     table may cost the main thread nothing: apart from ForksIgnored,
//     every counter (per-PC records included) equals the run without
//     slices.
//   - R2: with every branch and load perfect, nothing mispredicts, no
//     wrong path is fetched and no load misses, with or without slices.
//   - R3: with SlicePredictionsOff, slices fork and prefetch but no
//     prediction is generated, consumed or resolved early.
//   - R4: an empty slice table gives the same whole snapshot as no table.
//   - R6: with slices, a measured region Run in three parts (stopping at
//     20k and 40k) gives the same whole snapshot as one Run. The store
//     queue, the helpers and the stop rule all carry state across the
//     stops.
//
// R5, a one-program NewMulti core equal to New, holds by construction:
// New calls NewMulti.
func TestTimingRelations(t *testing.T) {
	for _, w := range workloads.All() {
		t.Run(w.Name, func(t *testing.T) {
			one := Config4Wide()
			one.ThreadContexts = 1
			base := measureRegion(t, w, one, nil).Sim
			sliced := measureRegion(t, w, one, w.SliceTable()).Sim
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
			for _, table := range []*slicehw.Table{nil, w.SliceTable()} {
				s := measureRegion(t, w, perfect, table).Sim
				if s.Mispredicts != 0 || s.IndirectMisses != 0 || s.MainWrongPath != 0 || s.LoadMisses != 0 {
					t.Errorf("R2 (slices=%t): %d mispredicts, %d indirect misses, %d wrong-path fetches, %d load misses; want 0",
						table != nil, s.Mispredicts, s.IndirectMisses, s.MainWrongPath, s.LoadMisses)
				}
			}

			predsOff := Config4Wide()
			predsOff.SlicePredictionsOff = true
			s := measureRegion(t, w, predsOff, w.SliceTable()).Sim
			if s.Forks == 0 {
				t.Error("R3: no fork; the relation is vacuous")
			}
			if s.PredsUsed != 0 || s.PredsLateUsed != 0 || s.PredsCorrect != 0 || s.PredsIncorrect != 0 ||
				s.PredsGenerated != 0 || s.EarlyResolutions != 0 {
				t.Errorf("R3: predictions off, yet %d used, %d late, %d correct, %d incorrect, %d generated, %d early resolutions; want 0",
					s.PredsUsed, s.PredsLateUsed, s.PredsCorrect, s.PredsIncorrect, s.PredsGenerated, s.EarlyResolutions)
			}

			none := measureRegion(t, w, Config4Wide(), nil)
			empty := measureRegion(t, w, Config4Wide(), slicehw.MustTable(nil))
			if !reflect.DeepEqual(none, empty) {
				none.Sim, empty.Sim = withoutStatic(none.Sim), withoutStatic(empty.Sim)
				t.Errorf("R4: an empty slice table moved the snapshot:\nno table    %+v\nempty table %+v", none, empty)
			}

			whole := measureRegion(t, w, Config4Wide(), w.SliceTable())
			split := measureRegion(t, w, Config4Wide(), w.SliceTable(), 20_000, 40_000)
			if !reflect.DeepEqual(whole, split) {
				whole.Sim, split.Sim = withoutStatic(whole.Sim), withoutStatic(split.Sim)
				t.Errorf("R6: stopping Run at 20k and 40k moved the snapshot:\none Run %+v\nsplit   %+v", whole, split)
			}
		})
	}
}

// withoutStatic drops the per-PC map so a failure prints the totals.
func withoutStatic(s stats.Sim) stats.Sim {
	s.Static = nil
	return s
}
