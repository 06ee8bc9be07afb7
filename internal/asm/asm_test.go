package asm

import (
	"strings"
	"testing"

	"repro/internal/isa"
)

func TestBuilderLabelsAndBranches(t *testing.T) {
	b := NewBuilder(0x1000)
	b.Label("start")
	b.I(isa.LDI, 1, 0, 10) // r1 = 10
	b.Label("loop")
	b.I(isa.ADDI, 1, 1, -1)
	b.B(isa.BGT, 1, "loop")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.PC("start") != 0x1000 {
		t.Errorf("start = %#x", p.PC("start"))
	}
	if p.PC("loop") != 0x1004 {
		t.Errorf("loop = %#x", p.PC("loop"))
	}
	// The backward branch at 0x1008 must target 0x1004.
	in, ok := p.At(0x1008)
	if !ok || !in.IsCondBranch() {
		t.Fatalf("inst at 0x1008: %v ok=%v", in, ok)
	}
	if got := in.BranchTarget(0x1008); got != 0x1004 {
		t.Errorf("branch target = %#x", got)
	}
}

func TestForwardBranch(t *testing.T) {
	b := NewBuilder(0x1000)
	b.B(isa.BEQ, 1, "done")
	b.Nop()
	b.Nop()
	b.Label("done")
	b.Halt()
	p := b.MustBuild()
	in, _ := p.At(0x1000)
	if got := in.BranchTarget(0x1000); got != p.PC("done") {
		t.Errorf("forward target = %#x, want %#x", got, p.PC("done"))
	}
}

func TestUndefinedLabelError(t *testing.T) {
	b := NewBuilder(0x1000)
	b.Br("nowhere")
	if _, err := b.Build(); err == nil {
		t.Error("undefined label must be an error")
	}
}

func TestDuplicateLabelError(t *testing.T) {
	b := NewBuilder(0x1000)
	b.Label("x")
	b.Nop()
	b.Label("x")
	if _, err := b.Build(); err == nil {
		t.Error("duplicate label must be an error")
	}
}

func TestBadBaseError(t *testing.T) {
	if _, err := NewBuilder(0).Build(); err == nil {
		t.Error("zero base must be an error")
	}
	if _, err := NewBuilder(0x1002).Build(); err == nil {
		t.Error("misaligned base must be an error")
	}
}

func TestLiSmallAndLarge(t *testing.T) {
	run := func(v int64) uint64 {
		b := NewBuilder(0x1000)
		b.Li(5, v)
		p := b.MustBuild()
		st := &execState{}
		pc := p.Base
		for {
			in, ok := p.At(pc)
			if !ok {
				break
			}
			var o isa.Outcome
			isa.Execute(in, pc, st, &o)
			pc = o.NextPC(pc)
		}
		return st.regs[5]
	}
	for _, v := range []int64{0, 1, -1, 42, 1 << 20, -(1 << 20), 1 << 40, -(1 << 40), 0x123456789ABCDEF0, -0x123456789ABCDEF0} {
		if got := run(v); got != uint64(v) {
			t.Errorf("Li(%#x) produced %#x", v, got)
		}
	}
	// Small constants must be one instruction.
	b := NewBuilder(0x1000)
	b.Li(5, 1234)
	if p := b.MustBuild(); len(p.Insts) != 1 {
		t.Errorf("Li(1234) expanded to %d instructions", len(p.Insts))
	}
}

type execState struct{ regs [isa.NumRegs]uint64 }

func (s *execState) Reg(r isa.Reg) uint64 {
	if r == isa.Zero {
		return 0
	}
	return s.regs[r]
}
func (s *execState) SetReg(r isa.Reg, v uint64) {
	if r != isa.Zero {
		s.regs[r] = v
	}
}
func (s *execState) Load(uint64, int) (uint64, bool) { return 0, true }
func (s *execState) Store(uint64, int, uint64) bool  { return true }

func TestCallRetAndHelpers(t *testing.T) {
	b := NewBuilder(0x1000)
	b.Call("fn")
	b.Halt()
	b.Label("fn")
	b.Mov(2, 1)
	b.Ret()
	p := b.MustBuild()
	in, _ := p.At(0x1000)
	if in.Op != isa.CALL || in.Rd != isa.RA {
		t.Errorf("call = %+v", in)
	}
	if got := in.BranchTarget(0x1000); got != p.PC("fn") {
		t.Errorf("call target = %#x", got)
	}
	ret, _ := p.At(p.PC("fn") + isa.InstBytes)
	if ret.Op != isa.RET || ret.Ra != isa.RA {
		t.Errorf("ret = %+v", ret)
	}
}

func TestMemoryEmitters(t *testing.T) {
	b := NewBuilder(0x1000)
	b.Ld(1, 8, 2)
	b.Ldw(1, 4, 2)
	b.Ldbu(1, 1, 2)
	b.St(1, 8, 2)
	b.Stw(1, 4, 2)
	b.Stb(1, 1, 2)
	p := b.MustBuild()
	wantOps := []isa.Op{isa.LD, isa.LDW, isa.LDBU, isa.ST, isa.STW, isa.STB}
	for i, op := range wantOps {
		if p.Insts[i].Op != op {
			t.Errorf("inst %d op = %v, want %v", i, p.Insts[i].Op, op)
		}
	}
	// Store data register travels in Rd.
	if p.Insts[3].Rd != 1 || p.Insts[3].Ra != 2 {
		t.Errorf("store fields = %+v", p.Insts[3])
	}
}

func TestImageLookupAndOverlap(t *testing.T) {
	main := NewBuilder(0x1000)
	main.Nop()
	main.Halt()
	mp := main.MustBuild()

	sl := NewBuilder(0x100000)
	sl.Nop()
	sp := sl.MustBuild()

	im, err := NewImage(mp, sp)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := im.At(0x1000); !ok {
		t.Error("main inst not found")
	}
	if _, ok := im.At(0x100000); !ok {
		t.Error("slice inst not found")
	}
	if _, ok := im.At(0x2000); ok {
		t.Error("hole resolved to an instruction")
	}
	// Overlap must be rejected.
	dup := NewBuilder(0x1004)
	dup.Nop()
	if err := im.Add(dup.MustBuild()); err == nil {
		t.Error("overlapping program accepted")
	}
}

func TestDisasmOutput(t *testing.T) {
	b := NewBuilder(0x1000)
	b.Label("entry")
	b.I(isa.LDI, 1, 0, 7)
	b.Halt()
	p := b.MustBuild()
	text := p.Disasm()
	if !strings.Contains(text, "entry:") || !strings.Contains(text, "ldi r1, 7") {
		t.Errorf("disasm:\n%s", text)
	}
	if l, ok := p.LabelAt(0x1000); !ok || l != "entry" {
		t.Errorf("LabelAt = %q,%v", l, ok)
	}
}

func TestPCAdvances(t *testing.T) {
	b := NewBuilder(0x1000)
	if b.PC() != 0x1000 {
		t.Errorf("initial PC = %#x", b.PC())
	}
	b.Nop()
	if b.PC() != 0x1004 {
		t.Errorf("PC after one inst = %#x", b.PC())
	}
}
