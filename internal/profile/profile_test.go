package profile

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/stats"
	"repro/internal/workloads"
)

func TestCharacterizeSynthetic(t *testing.T) {
	s := stats.New()
	// A hot problem load: 1000 execs, 400 misses.
	pl := s.ByPC(0x1000)
	pl.IsLoad = true
	pl.Execs, pl.Misses = 1000, 400
	// A well-behaved load: many execs, few misses.
	gl := s.ByPC(0x1004)
	gl.IsLoad = true
	gl.Execs, gl.Misses = 10000, 20
	// A problem branch: 1000 execs, 300 mispredicts.
	pb := s.ByPC(0x1008)
	pb.IsBranch = true
	pb.Execs, pb.Mispredicts = 1000, 300
	// A biased branch.
	gb := s.ByPC(0x100c)
	gb.IsBranch = true
	gb.Execs, gb.Mispredicts = 20000, 50

	r := Characterize(s, 1_000_000) // a 100-event floor
	if r.MemSI != 1 || !r.LoadPCs[0x1000] || r.LoadPCs[0x1004] {
		t.Errorf("mem selection wrong: %+v", r)
	}
	if r.BrSI != 1 || !r.BranchPCs[0x1008] || r.BranchPCs[0x100c] {
		t.Errorf("branch selection wrong: %+v", r)
	}
	// Coverage: the problem load covers 400/420 misses.
	if r.MissCoverage < 0.90 || r.MissCoverage > 0.99 {
		t.Errorf("miss coverage = %.3f", r.MissCoverage)
	}
	// The problem load is a small fraction of dynamic memory ops.
	if r.MemFrac > 0.15 {
		t.Errorf("mem frac = %.3f", r.MemFrac)
	}
	if r.MispredCoverage < 0.80 {
		t.Errorf("mispredict coverage = %.3f", r.MispredCoverage)
	}
}

func TestCharacterizeEmptyStats(t *testing.T) {
	r := Characterize(stats.New(), 100000)
	if r.MemSI != 0 || r.BrSI != 0 {
		t.Errorf("empty stats produced problem instructions: %+v", r)
	}
}

func TestTopOffenders(t *testing.T) {
	s := stats.New()
	for i, misses := range []uint64{5, 50, 500} {
		st := s.ByPC(uint64(0x1000 + i*4))
		st.IsLoad = true
		st.Execs, st.Misses = 1000, misses
	}
	top := TopOffenders(s, 2)
	if len(top) != 2 || top[0].Misses != 500 || top[1].Misses != 50 {
		t.Errorf("top = %+v", top)
	}
}

// TestProblemConcentrationOnWorkloads reproduces Table 2's core claim on
// our kernels: a handful of static instructions covers the large majority
// of PDEs.
func TestProblemConcentrationOnWorkloads(t *testing.T) {
	for _, name := range []string{"vpr", "mcf", "gzip", "eon"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			core := cpu.MustNew(cpu.Config4Wide(), w.Image, w.NewMemory(), w.Entry, nil)
			core.Run(30_000)
			core.ResetStats()
			s := core.Run(80_000)
			r := Characterize(s, 80_000)
			if name != "eon" {
				if r.MemSI == 0 || r.MemSI > 20 {
					t.Errorf("MemSI = %d", r.MemSI)
				}
				if r.MissCoverage < 0.5 {
					t.Errorf("miss coverage = %.2f", r.MissCoverage)
				}
			}
			if r.BrSI == 0 || r.BrSI > 20 {
				t.Errorf("BrSI = %d", r.BrSI)
			}
			if r.MispredCoverage < 0.5 {
				t.Errorf("mispredict coverage = %.2f", r.MispredCoverage)
			}
		})
	}
}

// TestPerfectingProblemInstructionsHelps is Figure 1's middle bar: giving
// only the problem instructions a perfect cache and predictor recovers a
// large share of the all-perfect speedup.
func TestPerfectingProblemInstructionsHelps(t *testing.T) {
	w, err := workloads.ByName("vpr")
	if err != nil {
		t.Fatal(err)
	}
	run := func(p cpu.Perfect) *stats.Sim {
		cfg := cpu.Config4Wide()
		cfg.Perfect = p
		core := cpu.MustNew(cfg, w.Image, w.NewMemory(), w.Entry, nil)
		core.Run(30_000)
		core.ResetStats()
		return core.Run(80_000)
	}

	base := run(cpu.Perfect{})
	// Profile on a fresh baseline run.
	core := cpu.MustNew(cpu.Config4Wide(), w.Image, w.NewMemory(), w.Entry, nil)
	core.Run(30_000)
	core.ResetStats()
	r := Characterize(core.Run(80_000), 80_000)

	prob := run(cpu.Perfect{LoadPCs: r.LoadPCs, BranchPCs: r.BranchPCs})
	perf := run(cpu.Perfect{AllBranches: true, AllLoads: true})

	if !(perf.IPC() > prob.IPC() && prob.IPC() > base.IPC()) {
		t.Fatalf("IPC ordering violated: base %.3f, prob %.3f, perfect %.3f",
			base.IPC(), prob.IPC(), perf.IPC())
	}
	// The problem instructions account for much of the base→perfect gap.
	frac := (prob.IPC() - base.IPC()) / (perf.IPC() - base.IPC())
	if frac < 0.4 {
		t.Errorf("problem instructions recover only %.0f%% of the perfect gap", frac*100)
	}
}
