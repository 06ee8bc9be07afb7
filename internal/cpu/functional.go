package cpu

import (
	"errors"
	"fmt"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/isa/compiled"
	"repro/internal/mem"
)

// FuncState is the result of a functional (timing-free) run.
type FuncState struct {
	Regs    [isa.NumRegs]uint64
	Retired uint64
	Halted  bool
	PC      uint64
}

type funcCtx struct {
	regs *[isa.NumRegs]uint64
	m    *mem.Memory
}

func (f funcCtx) Reg(r isa.Reg) uint64 {
	if r == isa.Zero {
		return 0
	}
	return f.regs[r]
}

func (f funcCtx) SetReg(r isa.Reg, v uint64) {
	if r != isa.Zero {
		f.regs[r] = v
	}
}

func (f funcCtx) Load(addr uint64, size int) (uint64, bool)  { return f.m.Read(addr, size) }
func (f funcCtx) Store(addr uint64, size int, v uint64) bool { return f.m.Write(addr, size, v) }

// RunFunctional executes the image architecturally — no pipeline, no
// caches, no speculation. It is the reference model the out-of-order core
// must match instruction-for-instruction. It runs on the compiled engine
// (isa/compiled); RunFunctionalInterp is the decode-dispatch interpreter
// it is differentially tested against.
func RunFunctional(image *asm.Image, m *mem.Memory, entry uint64, maxInsts uint64) (FuncState, error) {
	var st FuncState
	ma := compiled.NewMachine(compiled.Cached(image), m, entry)
	n, err := ma.Run(maxInsts)
	st.Retired = n
	st.Halted = ma.Halted()
	st.PC = ma.PC()
	ma.CopyRegs(&st.Regs)
	if err != nil {
		var off *compiled.OffImageError
		if errors.As(err, &off) {
			return st, fmt.Errorf("cpu: functional run fell off the image at %#x after %d instructions", off.PC, st.Retired)
		}
		return st, err
	}
	return st, nil
}

// RunFunctionalInterp is RunFunctional on the original decode-dispatch
// interpreter (isa.Execute against the image, one lookup per
// instruction). It is retained as the differential reference for the
// compiled engine: the functional warm path's architectural-state test
// runs against it.
func RunFunctionalInterp(image *asm.Image, m *mem.Memory, entry uint64, maxInsts uint64) (FuncState, error) {
	var st FuncState
	st.PC = entry
	ctx := funcCtx{regs: &st.Regs, m: m}
	var out isa.Outcome
	for st.Retired < maxInsts {
		in, ok := image.At(st.PC)
		if !ok {
			return st, fmt.Errorf("cpu: functional run fell off the image at %#x after %d instructions", st.PC, st.Retired)
		}
		isa.Execute(in, st.PC, &ctx, &out)
		st.Retired++
		if out.Halt {
			st.Halted = true
			return st, nil
		}
		st.PC = out.NextPC(st.PC)
	}
	return st, nil
}
