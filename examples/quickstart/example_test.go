// Quickstart: assemble a tiny program, run it on the simulated
// out-of-order machine, and compare against the functional reference.
//
//	go test -run Example -v ./examples/quickstart
package quickstart

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mem"
)

func Example() {
	// A little kernel: sum an array of 1024 words through a pointer.
	const base = 0x20000
	b := asm.NewBuilder(0x1000)
	b.Li(1, base)            // pointer
	b.I(isa.LDI, 2, 0, 1024) // count
	b.I(isa.LDI, 3, 0, 0)    // sum
	b.Label("loop")
	b.Ld(4, 0, 1)
	b.R(isa.ADD, 3, 3, 4)
	b.I(isa.ADDI, 1, 1, 8)
	b.I(isa.ADDI, 2, 2, -1)
	b.B(isa.BGT, 2, "loop")
	b.Halt()
	prog := b.MustBuild()

	image, err := asm.NewImage(prog)
	if err != nil {
		panic(err)
	}
	m := mem.New()
	for i := uint64(0); i < 1024; i++ {
		m.WriteU64(base+i*8, i)
	}

	// The cycle-level machine (Table 1's 4-wide configuration).
	core := cpu.MustNew(cpu.Config4Wide(), image, m, prog.Base, nil)
	s := core.Run(1 << 20)

	// The architectural reference must agree exactly.
	ref := mem.New()
	for i := uint64(0); i < 1024; i++ {
		ref.WriteU64(base+i*8, i)
	}
	fs, err := cpu.RunFunctional(image, ref, prog.Base, 1<<20)
	if err != nil {
		panic(err)
	}

	fmt.Printf("sum (out-of-order core)   = %d\n", core.Main().Regs[3])
	fmt.Printf("sum (functional reference)= %d\n", fs.Regs[3])
	fmt.Printf("retired %d instructions in %d cycles (IPC %.2f)\n",
		s.MainRetired, s.Cycles, s.IPC())
	fmt.Printf("load misses: %d (the stream prefetcher covers the sequential walk)\n",
		s.LoadMisses)

	// Output:
	// sum (out-of-order core)   = 523776
	// sum (functional reference)= 523776
	// retired 5124 instructions in 4087 cycles (IPC 1.25)
	// load misses: 512 (the stream prefetcher covers the sequential walk)
}
