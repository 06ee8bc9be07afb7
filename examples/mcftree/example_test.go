// Mcftree demonstrates the "long-running background slice" pattern (§6.1)
// on the mcf kernel: while the main thread walks one scattered linked
// list, a helper thread chases the *next* list's pointers, so its node
// lines are already on the way when the main thread arrives.
//
//	go test -run Example -v ./examples/mcftree
package mcftree

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/workloads"
)

func Example() {
	w, err := workloads.ByName("mcf")
	if err != nil {
		panic(err)
	}

	run := func(withSlices, predsOff bool) *cpu.Core {
		cfg := cpu.Config4Wide()
		cfg.SlicePredictionsOff = predsOff
		var core *cpu.Core
		if withSlices {
			core = cpu.MustNew(cfg, w.Image, w.NewMemory(), w.Entry, w.SliceTable())
		} else {
			core = cpu.MustNew(cfg, w.Image, w.NewMemory(), w.Entry, nil)
		}
		core.Run(w.SuggestedWarmup)
		core.ResetStats()
		core.Run(w.SuggestedRun)
		return core
	}

	base := run(false, false)
	pref := run(true, true) // prefetch only: PGI allocation disabled
	full := run(true, false)

	speedup := func(c *cpu.Core) float64 {
		return (float64(base.S.Cycles)/float64(c.S.Cycles) - 1) * 100
	}

	fmt.Printf("baseline:        IPC %.3f (%d load misses, %d mispredictions)\n",
		base.S.IPC(), base.S.LoadMisses, base.S.Mispredicts)
	fmt.Printf("prefetch only:   IPC %.3f  speedup %.1f%%  (misses %d)\n",
		pref.S.IPC(), speedup(pref), pref.S.LoadMisses)
	fmt.Printf("full slices:     IPC %.3f  speedup %.1f%%  (misses %d, mispredictions %d)\n",
		full.S.IPC(), speedup(full), full.S.LoadMisses, full.S.Mispredicts)
	frac := speedup(pref) / speedup(full)
	fmt.Printf("\n~%.0f%% of mcf's speedup comes from prefetching — Table 4 reports ~80%%.\n", frac*100)
	fmt.Printf("helper threads covered %d of the main thread's misses.\n", full.S.MissesCovered)

	// Output:
	// baseline:        IPC 0.124 (39902 load misses, 20123 mispredictions)
	// prefetch only:   IPC 0.184  speedup 48.4%  (misses 26292)
	// full slices:     IPC 0.206  speedup 66.1%  (misses 24813, mispredictions 4520)
	//
	// ~73% of mcf's speedup comes from prefetching — Table 4 reports ~80%.
	// helper threads covered 28448 of the main thread's misses.
}
