package cpu

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/mem"
)

// Stepper is the functional model: an architectural register file, a PC
// and a memory, advanced one instruction at a time through isa.Execute.
// It has no pipeline, caches or speculation. RunFunctional, FunctionalWarm,
// the differential oracle and autoslice's trace collection all step it, so
// isa.Execute is the one place opcode semantics live.
//
// Main-thread semantics: a faulting load reads zero and a faulting store
// is dropped (Outcome.Fault reports both), and execution continues. A
// write to the Zero register is discarded.
//
// A Stepper is single-threaded; create one per concurrent run.
type Stepper struct {
	image  *asm.Image
	m      *mem.Memory
	regs   [isa.NumRegs]uint64 // regs[isa.Zero] is never written
	pc     uint64
	halted bool
}

// NewStepper returns a Stepper executing image against m from pc with a
// zeroed register file. It mutates m with every store it executes.
func NewStepper(image *asm.Image, m *mem.Memory, pc uint64) *Stepper {
	return &Stepper{image: image, m: m, pc: pc}
}

// PC returns the next instruction's address. After a HALT it stays on the
// HALT.
func (s *Stepper) PC() uint64 { return s.pc }

// Halted reports whether a HALT has executed.
func (s *Stepper) Halted() bool { return s.halted }

// Mem returns the memory the stepper executes against.
func (s *Stepper) Mem() *mem.Memory { return s.m }

// Reg reads an architectural register; Zero reads 0.
func (s *Stepper) Reg(r isa.Reg) uint64 { return s.regs[r] }

// SetReg writes an architectural register; writing Zero is a no-op.
func (s *Stepper) SetReg(r isa.Reg, v uint64) {
	if r != isa.Zero {
		s.regs[r] = v
	}
}

// SetRegs loads the whole register file; the Zero slot is ignored.
func (s *Stepper) SetRegs(regs *[isa.NumRegs]uint64) {
	s.regs = *regs
	s.regs[isa.Zero] = 0
}

// CopyRegs copies the register file out.
func (s *Stepper) CopyRegs(regs *[isa.NumRegs]uint64) { *regs = s.regs }

// Load and Store complete isa.State over the stepper's memory.
func (s *Stepper) Load(addr uint64, size int) (uint64, bool)  { return s.m.Read(addr, size) }
func (s *Stepper) Store(addr uint64, size int, v uint64) bool { return s.m.Write(addr, size, v) }

// Step executes the instruction at PC, fills out with its outcome and
// returns the instruction. The PC advances to the outcome's next PC,
// except on HALT, which leaves it on the HALT and sets Halted. A PC
// outside the image (or unaligned) executes nothing and returns an error
// naming it.
func (s *Stepper) Step(out *isa.Outcome) (*isa.Inst, error) {
	in, ok := s.image.At(s.pc)
	if !ok {
		return nil, fmt.Errorf("pc %#x is outside the image", s.pc)
	}
	isa.Execute(in, s.pc, s, out)
	if out.Halt {
		s.halted = true
	} else {
		s.pc = out.NextPC(s.pc)
	}
	return in, nil
}

// FuncState is the result of a functional (timing-free) run.
type FuncState struct {
	Regs    [isa.NumRegs]uint64
	Retired uint64
	Halted  bool
	PC      uint64
}

// RunFunctional executes the image architecturally on a Stepper for at
// most maxInsts instructions or until HALT. It is the reference model the
// out-of-order core must match instruction-for-instruction.
func RunFunctional(image *asm.Image, m *mem.Memory, entry uint64, maxInsts uint64) (FuncState, error) {
	var st FuncState
	s := NewStepper(image, m, entry)
	var (
		out isa.Outcome
		err error
	)
	for st.Retired < maxInsts && !s.halted {
		if _, err = s.Step(&out); err != nil {
			err = fmt.Errorf("cpu: functional run fell off the image at %#x after %d instructions", s.pc, st.Retired)
			break
		}
		st.Retired++
	}
	st.Halted = s.halted
	st.PC = s.pc
	s.CopyRegs(&st.Regs)
	return st, err
}
