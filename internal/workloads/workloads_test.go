package workloads

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/stats"
)

// runWorkload runs w for a small region under cfg, with or without its
// slice hardware, and returns the measured stats.
func runWorkload(t testing.TB, w *Workload, cfg cpu.Config, withSlices bool, warmup, run uint64) (*cpu.Core, *stats.Sim) {
	t.Helper()
	var core *cpu.Core
	if withSlices {
		core = cpu.MustNew(cfg, w.Image, w.NewMemory(), w.Entry, w.SliceTable())
	} else {
		core = cpu.MustNew(cfg, w.Image, w.NewMemory(), w.Entry, nil)
	}
	core.Run(warmup)
	core.ResetStats()
	s := core.Run(run)
	return core, s
}

func TestAllWorkloadsFunctionallySound(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			st, err := cpu.RunFunctional(w.Image, w.NewMemory(), w.Entry, 50_000)
			if err != nil {
				t.Fatalf("functional run: %v", err)
			}
			if st.Halted {
				t.Fatal("workload halted inside the measurement region")
			}
			if st.Retired != 50_000 {
				t.Fatalf("retired %d", st.Retired)
			}
		})
	}
}

func TestAllWorkloadsRunOnCore(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			_, s := runWorkload(t, w, cpu.Config4Wide(), false, 20_000, 40_000)
			if s.MainRetired < 40_000 {
				t.Fatalf("retired only %d", s.MainRetired)
			}
			ipc := s.IPC()
			if ipc < 0.05 || ipc > 4.01 {
				t.Errorf("IPC %.3f out of range", ipc)
			}
		})
	}
}

// TestProblemInstructionProfiles checks each workload produces the PDE
// profile it was designed around (Table 2's shape).
func TestProblemInstructionProfiles(t *testing.T) {
	type want struct {
		minMispredRate float64 // per retired instruction, scaled 1e3
		maxMispredRate float64
		minMissRate    float64 // load misses per 1e3 instructions
		maxMissRate    float64
	}
	wants := map[string]want{
		"vpr":    {minMispredRate: 5, maxMispredRate: 60, minMissRate: 5, maxMissRate: 120},
		"mcf":    {minMispredRate: 5, maxMispredRate: 80, minMissRate: 20, maxMissRate: 200},
		"eon":    {minMispredRate: 20, maxMispredRate: 120, minMissRate: 0, maxMissRate: 2},
		"gzip":   {minMispredRate: 10, maxMispredRate: 90, minMissRate: 3, maxMissRate: 120},
		"bzip2":  {minMispredRate: 10, maxMispredRate: 90, minMissRate: 3, maxMissRate: 120},
		"twolf":  {minMispredRate: 5, maxMispredRate: 60, minMissRate: 5, maxMissRate: 120},
		"vortex": {minMispredRate: 0, maxMispredRate: 20, minMissRate: 0, maxMissRate: 45},
	}
	for _, w := range All() {
		wt, ok := wants[w.Name]
		if !ok {
			continue
		}
		w := w
		t.Run(w.Name, func(t *testing.T) {
			_, s := runWorkload(t, w, cpu.Config4Wide(), false, 30_000, 60_000)
			mispredPerK := float64(s.Mispredicts) / float64(s.MainRetired) * 1000
			missPerK := float64(s.LoadMisses) / float64(s.MainRetired) * 1000
			if mispredPerK < wt.minMispredRate || mispredPerK > wt.maxMispredRate {
				t.Errorf("mispredicts/Kinst = %.1f, want [%v,%v]", mispredPerK, wt.minMispredRate, wt.maxMispredRate)
			}
			if missPerK < wt.minMissRate || missPerK > wt.maxMissRate {
				t.Errorf("load misses/Kinst = %.1f, want [%v,%v]", missPerK, wt.minMissRate, wt.maxMissRate)
			}
		})
	}
}

// TestSlicesForkAndPredict checks the slice machinery engages on every
// workload that defines slices.
func TestSlicesForkAndPredict(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			_, s := runWorkload(t, w, cpu.Config4Wide(), true, 30_000, 60_000)
			if s.Forks == 0 {
				t.Fatal("no forks")
			}
			if s.HelperFetched == 0 {
				t.Fatal("no helper instructions fetched")
			}
			hasPGIs := false
			for _, sl := range w.Slices {
				if len(sl.PGIs) > 0 {
					hasPGIs = true
				}
			}
			if hasPGIs && s.PredsUsed == 0 && s.PredsLateUsed == 0 && w.Name != "parser" {
				// parser's slice is the paper's §6.2 failure case: its
				// predictions replicate the expensive key generation and
				// arrive after the kill, so none ever match.
				t.Error("slices define PGIs but no predictions were matched")
			}
		})
	}
}

// TestSlicePredictionAccuracy: when slice predictions override the
// conventional predictor, they must be highly accurate (>99% in the
// paper; we allow a small margin for our racier memory model).
func TestSlicePredictionAccuracy(t *testing.T) {
	for _, name := range []string{"vpr", "eon", "gzip", "bzip2", "gap", "twolf", "perl", "mcf", "crafty"} {
		w, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			_, s := runWorkload(t, w, cpu.Config4Wide(), true, 30_000, 80_000)
			if s.PredsUsed < 50 {
				t.Skipf("only %d overrides in this small region", s.PredsUsed)
			}
			acc := float64(s.PredsCorrect) / float64(s.PredsCorrect+s.PredsIncorrect)
			if acc < 0.90 {
				t.Errorf("override accuracy %.3f (correct=%d incorrect=%d)", acc, s.PredsCorrect, s.PredsIncorrect)
			}
		})
	}
}

// TestSliceSpeedups checks the headline result's shape: the benchmarks the
// paper speeds up must get faster with slices, and the failure cases must
// not get dramatically slower.
func TestSliceSpeedups(t *testing.T) {
	speedupExpected := []string{"vpr", "eon", "gzip", "bzip2", "gap", "twolf", "perl", "mcf"}
	neutral := []string{"parser", "gcc", "vortex", "crafty"}

	for _, name := range append(append([]string{}, speedupExpected...), neutral...) {
		w, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		name := name
		t.Run(name, func(t *testing.T) {
			_, base := runWorkload(t, w, cpu.Config4Wide(), false, 40_000, 100_000)
			_, sl := runWorkload(t, w, cpu.Config4Wide(), true, 40_000, 100_000)
			speedup := float64(base.Cycles)/float64(sl.Cycles) - 1
			t.Logf("%s: base %.3f IPC, slices %.3f IPC, speedup %.1f%%",
				name, base.IPC(), sl.IPC(), speedup*100)
			for _, s := range speedupExpected {
				if s == name && speedup < 0.005 {
					t.Errorf("expected a speedup, got %.2f%%", speedup*100)
				}
			}
			if speedup < -0.05 {
				t.Errorf("slices slowed %s down by %.1f%%", name, -speedup*100)
			}
		})
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("vpr"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown name accepted")
	}
	if len(All()) != 12 {
		t.Errorf("All() = %d workloads", len(All()))
	}
}

func TestSliceMetadataComplete(t *testing.T) {
	for _, w := range All() {
		for _, sl := range w.Slices {
			if sl.StaticSize == 0 {
				t.Errorf("%s: slice %s has no StaticSize", w.Name, sl.Name)
			}
			if sl.ForkPC == 0 || sl.SlicePC == 0 {
				t.Errorf("%s: slice %s missing PCs", w.Name, sl.Name)
			}
			if len(sl.LiveIns) == 0 {
				t.Errorf("%s: slice %s has no live-ins", w.Name, sl.Name)
			}
			if len(sl.LiveIns) > 4 {
				t.Errorf("%s: slice %s has %d live-ins; the paper says rarely more than 4",
					w.Name, sl.Name, len(sl.LiveIns))
			}
			// Slice code must exist in the image.
			if _, ok := w.Image.At(sl.SlicePC); !ok {
				t.Errorf("%s: slice %s code missing from image", w.Name, sl.Name)
			}
			if _, ok := w.Image.At(sl.ForkPC); !ok {
				t.Errorf("%s: slice %s fork PC missing from image", w.Name, sl.Name)
			}
			for _, p := range sl.PGIs {
				if _, ok := w.Image.At(p.SlicePC); !ok {
					t.Errorf("%s: PGI at %#x not in image", w.Name, p.SlicePC)
				}
				if in, ok := w.Image.At(p.BranchPC); !ok || !in.IsCondBranch() {
					t.Errorf("%s: PGI target %#x is not a conditional branch", w.Name, p.BranchPC)
				}
			}
		}
	}
}

// TestNewMemoryCopyOnWrite pins the shared-image contract: All and ByName
// hand out one process-wide instance per workload, and NewMemory's clones
// of its initial image are independent — a write to one clone is
// invisible to the others and to clones made later.
func TestNewMemoryCopyOnWrite(t *testing.T) {
	w, err := ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := ByName("mcf"); again != w {
		t.Fatal("ByName returned a second instance")
	}
	found := false
	for _, x := range All() {
		found = found || x == w
	}
	if !found {
		t.Fatal("All and ByName returned different instances")
	}

	m1, m2 := w.NewMemory(), w.NewMemory()
	const addr = DataBase
	if !m1.Mapped(addr) {
		t.Fatalf("mcf's image does not map %#x", addr)
	}
	orig := m1.ReadU64(addr)
	m1.WriteU64(addr, ^orig)
	if got := m2.ReadU64(addr); got != orig {
		t.Errorf("write to one clone leaked into a sibling: %#x, want %#x", got, orig)
	}
	if got := w.NewMemory().ReadU64(addr); got != orig {
		t.Errorf("write to one clone leaked into the shared image: %#x, want %#x", got, orig)
	}
}
