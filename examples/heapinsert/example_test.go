// Heapinsert walks through the paper's running example (Figures 2-5): the
// vpr heap-insertion kernel, its problem instructions, and the speculative
// slice that pre-executes them. It prints the slice code, then runs the
// kernel with and without slice hardware and reports what changed.
//
//	go test -run Example -v ./examples/heapinsert
package heapinsert

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/workloads"
)

func Example() {
	w, err := workloads.ByName("vpr")
	if err != nil {
		panic(err)
	}

	fmt.Println("The vpr heap-insertion slice (compare with the paper's Figure 5):")
	fmt.Println()
	progs := w.Image.Programs()
	fmt.Print(progs[len(progs)-1].Disasm()) // the slice code region
	sl := w.Slices[0]
	fmt.Printf("\nfork PC %#x, live-ins %v, max %d loop iterations, %d PGI(s)\n\n",
		sl.ForkPC, sl.LiveIns, sl.MaxLoops, len(sl.PGIs))

	run := func(withSlices bool) *cpu.Core {
		var core *cpu.Core
		if withSlices {
			core = cpu.MustNew(cpu.Config4Wide(), w.Image, w.NewMemory(), w.Entry, w.SliceTable())
		} else {
			core = cpu.MustNew(cpu.Config4Wide(), w.Image, w.NewMemory(), w.Entry, nil)
		}
		core.Run(w.SuggestedWarmup)
		core.ResetStats()
		core.Run(w.SuggestedRun)
		return core
	}

	base := run(false)
	slice := run(true)

	bs, ss := base.S, slice.S
	fmt.Printf("baseline:     IPC %.3f, %d mispredictions, %d load misses\n",
		bs.IPC(), bs.Mispredicts, bs.LoadMisses)
	fmt.Printf("with slices:  IPC %.3f, %d mispredictions, %d load misses\n",
		ss.IPC(), ss.Mispredicts, ss.LoadMisses)
	fmt.Printf("speedup:      %.1f%%\n", (float64(bs.Cycles)/float64(ss.Cycles)-1)*100)
	fmt.Printf("slice effect: %d forks, %d prefetches, %d misses covered,\n",
		ss.Forks, ss.SlicePrefetches, ss.MissesCovered)
	fmt.Printf("              %d predictions matched (%d early resolutions — the paper\n",
		ss.PredsConsumed(), ss.EarlyResolutions)
	fmt.Println("              reports vpr has the most late predictions, 31%)")

	// Output:
	// The vpr heap-insertion slice (compare with the paper's Figure 5):
	//
	// slice:
	//   0x00100000  ld r6, 8(gp)
	//   0x00100004  or r7, r24, zero
	// slice_loop:
	//   0x00100008  srai r7, r7, 1
	//   0x0010000c  s8add r16, r7, r6
	//   0x00100010  ld r18, 0(r16)
	//   0x00100014  ld r19, 0(r18)
	// slice_pgi:
	//   0x00100018  cmplt r17, r22, r19
	//   0x0010001c  br 0x100008
	//
	// fork PC 0x1064, live-ins [gp r22 r24], max 12 loop iterations, 1 PGI(s)
	//
	// baseline:     IPC 1.142, 4951 mispredictions, 4166 load misses
	// with slices:  IPC 1.266, 1792 mispredictions, 2627 load misses
	// speedup:      10.9%
	// slice effect: 8202 forks, 4218 prefetches, 3660 misses covered,
	//               7910 predictions matched (3701 early resolutions — the paper
	//               reports vpr has the most late predictions, 31%)
}
