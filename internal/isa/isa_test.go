package isa

import (
	"math/rand"
	"testing"
)

// fakeState is a plain architectural state for functional tests.
type fakeState struct {
	regs [NumRegs]uint64
	mem  map[uint64]byte
	// faultBelow makes accesses under this address fault.
	faultBelow uint64
}

func newFakeState() *fakeState {
	return &fakeState{mem: make(map[uint64]byte), faultBelow: 4096}
}

func (s *fakeState) Reg(r Reg) uint64 {
	if r == Zero {
		return 0
	}
	return s.regs[r]
}

func (s *fakeState) SetReg(r Reg, v uint64) {
	if r != Zero {
		s.regs[r] = v
	}
}

func (s *fakeState) Load(addr uint64, size int) (uint64, bool) {
	if addr < s.faultBelow {
		return 0, false
	}
	var v uint64
	for i := 0; i < size; i++ {
		v |= uint64(s.mem[addr+uint64(i)]) << (8 * i)
	}
	return v, true
}

func (s *fakeState) Store(addr uint64, size int, v uint64) bool {
	if addr < s.faultBelow {
		return false
	}
	for i := 0; i < size; i++ {
		s.mem[addr+uint64(i)] = byte(v >> (8 * i))
	}
	return true
}

func exec(t *testing.T, st *fakeState, in Inst) Outcome {
	t.Helper()
	var o Outcome
	Execute(&in, 0x1000, st, &o)
	return o
}

func TestALUOps(t *testing.T) {
	cases := []struct {
		name string
		in   Inst
		a, b uint64
		want uint64
	}{
		{"add", Inst{Op: ADD, Rd: 3, Ra: 1, Rb: 2}, 5, 7, 12},
		{"sub", Inst{Op: SUB, Rd: 3, Ra: 1, Rb: 2}, 5, 7, ^uint64(1)},
		{"mul", Inst{Op: MUL, Rd: 3, Ra: 1, Rb: 2}, 6, 7, 42},
		{"div", Inst{Op: DIV, Rd: 3, Ra: 1, Rb: 2}, 42, 7, 6},
		{"div_neg", Inst{Op: DIV, Rd: 3, Ra: 1, Rb: 2}, negU64(42), 7, negU64(6)},
		{"div_zero", Inst{Op: DIV, Rd: 3, Ra: 1, Rb: 2}, 42, 0, 0},
		{"and", Inst{Op: AND, Rd: 3, Ra: 1, Rb: 2}, 0xF0, 0x3C, 0x30},
		{"or", Inst{Op: OR, Rd: 3, Ra: 1, Rb: 2}, 0xF0, 0x0C, 0xFC},
		{"xor", Inst{Op: XOR, Rd: 3, Ra: 1, Rb: 2}, 0xF0, 0x3C, 0xCC},
		{"sll", Inst{Op: SLL, Rd: 3, Ra: 1, Rb: 2}, 1, 12, 4096},
		{"srl", Inst{Op: SRL, Rd: 3, Ra: 1, Rb: 2}, 0x8000000000000000, 63, 1},
		{"sra", Inst{Op: SRA, Rd: 3, Ra: 1, Rb: 2}, 0x8000000000000000, 63, ^uint64(0)},
		{"cmpeq_t", Inst{Op: CMPEQ, Rd: 3, Ra: 1, Rb: 2}, 9, 9, 1},
		{"cmpeq_f", Inst{Op: CMPEQ, Rd: 3, Ra: 1, Rb: 2}, 9, 8, 0},
		{"cmplt_signed", Inst{Op: CMPLT, Rd: 3, Ra: 1, Rb: 2}, negU64(1), 0, 1},
		{"cmple", Inst{Op: CMPLE, Rd: 3, Ra: 1, Rb: 2}, 4, 4, 1},
		{"cmpult", Inst{Op: CMPULT, Rd: 3, Ra: 1, Rb: 2}, negU64(1), 0, 0},
		{"cmpule", Inst{Op: CMPULE, Rd: 3, Ra: 1, Rb: 2}, 3, 3, 1},
		{"s4add", Inst{Op: S4ADD, Rd: 3, Ra: 1, Rb: 2}, 10, 100, 140},
		{"s8add", Inst{Op: S8ADD, Rd: 3, Ra: 1, Rb: 2}, 10, 100, 180},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			st := newFakeState()
			st.regs[1], st.regs[2] = c.a, c.b
			o := exec(t, st, c.in)
			if !o.WroteReg || o.Rd != 3 {
				t.Fatalf("expected write to r3, got %+v", o)
			}
			if st.regs[3] != c.want {
				t.Errorf("r3 = %#x, want %#x", st.regs[3], c.want)
			}
		})
	}
}

func TestImmediateOps(t *testing.T) {
	cases := []struct {
		name string
		in   Inst
		a    uint64
		want uint64
	}{
		{"addi", Inst{Op: ADDI, Rd: 3, Ra: 1, Imm: -4}, 10, 6},
		{"andi", Inst{Op: ANDI, Rd: 3, Ra: 1, Imm: 0xFF}, 0x1234, 0x34},
		{"ori", Inst{Op: ORI, Rd: 3, Ra: 1, Imm: 0x0F}, 0x30, 0x3F},
		{"xori", Inst{Op: XORI, Rd: 3, Ra: 1, Imm: 0xFF}, 0x0F, 0xF0},
		{"slli", Inst{Op: SLLI, Rd: 3, Ra: 1, Imm: 4}, 3, 48},
		{"srli", Inst{Op: SRLI, Rd: 3, Ra: 1, Imm: 4}, 48, 3},
		{"srai", Inst{Op: SRAI, Rd: 3, Ra: 1, Imm: 1}, negU64(8), negU64(4)},
		{"cmpeqi", Inst{Op: CMPEQI, Rd: 3, Ra: 1, Imm: 7}, 7, 1},
		{"cmplti", Inst{Op: CMPLTI, Rd: 3, Ra: 1, Imm: 0}, negU64(5), 1},
		{"cmplei", Inst{Op: CMPLEI, Rd: 3, Ra: 1, Imm: 5}, 5, 1},
		{"cmpulti", Inst{Op: CMPULTI, Rd: 3, Ra: 1, Imm: 5}, 4, 1},
		{"ldi", Inst{Op: LDI, Rd: 3, Imm: -1}, 0, ^uint64(0)},
		{"ldih", Inst{Op: LDIH, Rd: 3, Ra: 1, Imm: 2}, 1, 1 + 2<<16},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			st := newFakeState()
			st.regs[1] = c.a
			exec(t, st, c.in)
			if st.regs[3] != c.want {
				t.Errorf("r3 = %#x, want %#x", st.regs[3], c.want)
			}
		})
	}
}

func TestConditionalMoves(t *testing.T) {
	cases := []struct {
		op    Op
		a     int64
		fires bool
	}{
		{CMOVEQ, 0, true}, {CMOVEQ, 1, false},
		{CMOVNE, 0, false}, {CMOVNE, 1, true},
		{CMOVLT, -1, true}, {CMOVLT, 0, false},
		{CMOVGE, 0, true}, {CMOVGE, -1, false},
		{CMOVGT, 1, true}, {CMOVGT, 0, false},
		{CMOVLE, 0, true}, {CMOVLE, 1, false},
	}
	for _, c := range cases {
		st := newFakeState()
		st.regs[1] = uint64(c.a)
		st.regs[2] = 42
		st.regs[3] = 7
		exec(t, st, Inst{Op: c.op, Rd: 3, Ra: 1, Rb: 2})
		want := uint64(7)
		if c.fires {
			want = 42
		}
		if st.regs[3] != want {
			t.Errorf("%v(a=%d): r3 = %d, want %d", c.op, c.a, st.regs[3], want)
		}
	}
}

func TestZeroRegisterInvariant(t *testing.T) {
	st := newFakeState()
	st.regs[1] = 99
	o := exec(t, st, Inst{Op: ADD, Rd: Zero, Ra: 1, Rb: 1})
	if o.WroteReg {
		t.Error("write to r0 must be reported as no write")
	}
	if st.Reg(Zero) != 0 {
		t.Error("r0 must read as zero")
	}
}

func TestLoadsAndStores(t *testing.T) {
	st := newFakeState()
	st.regs[1] = 0x2000
	st.regs[2] = 0xFEDCBA9876543210

	o := exec(t, st, Inst{Op: ST, Rd: 2, Ra: 1, Imm: 8})
	if !o.IsStore || o.Addr != 0x2008 || o.StoreVal != st.regs[2] {
		t.Fatalf("store outcome %+v", o)
	}
	exec(t, st, Inst{Op: LD, Rd: 3, Ra: 1, Imm: 8})
	if st.regs[3] != st.regs[2] {
		t.Errorf("ld roundtrip = %#x", st.regs[3])
	}
	// 4-byte load sign-extends.
	exec(t, st, Inst{Op: LDW, Rd: 4, Ra: 1, Imm: 12})
	if st.regs[4] != 0xFFFFFFFFFEDCBA98 {
		t.Errorf("ldw = %#x, want sign-extended", st.regs[4])
	}
	// 1-byte load zero-extends.
	exec(t, st, Inst{Op: LDBU, Rd: 5, Ra: 1, Imm: 15})
	if st.regs[5] != 0xFE {
		t.Errorf("ldbu = %#x", st.regs[5])
	}
	// Sub-word stores.
	st.regs[6] = 0x1122334455667788
	exec(t, st, Inst{Op: STW, Rd: 6, Ra: 1, Imm: 0})
	exec(t, st, Inst{Op: LD, Rd: 7, Ra: 1, Imm: 0})
	if st.regs[7] != 0x55667788 {
		t.Errorf("stw wrote %#x", st.regs[7])
	}
	exec(t, st, Inst{Op: STB, Rd: 6, Ra: 1, Imm: 32})
	exec(t, st, Inst{Op: LDBU, Rd: 8, Ra: 1, Imm: 32})
	if st.regs[8] != 0x88 {
		t.Errorf("stb wrote %#x", st.regs[8])
	}
}

func TestNullDereferenceFaults(t *testing.T) {
	st := newFakeState()
	st.regs[1] = 0 // null pointer
	o := exec(t, st, Inst{Op: LD, Rd: 3, Ra: 1, Imm: 16})
	if !o.Fault {
		t.Error("null load must fault")
	}
	if st.regs[3] != 0 {
		t.Error("faulting load must produce zero")
	}
	o = exec(t, st, Inst{Op: ST, Rd: 3, Ra: 1, Imm: 16})
	if !o.Fault {
		t.Error("null store must fault")
	}
}

func TestBranches(t *testing.T) {
	cases := []struct {
		op    Op
		a     int64
		taken bool
	}{
		{BEQ, 0, true}, {BEQ, 1, false},
		{BNE, 0, false}, {BNE, -1, true},
		{BLT, -1, true}, {BLT, 0, false},
		{BLE, 0, true}, {BLE, 1, false},
		{BGT, 1, true}, {BGT, 0, false},
		{BGE, 0, true}, {BGE, -1, false},
	}
	for _, c := range cases {
		st := newFakeState()
		st.regs[1] = uint64(c.a)
		in := Inst{Op: c.op, Ra: 1, Imm: 5}
		var o Outcome
		Execute(&in, 0x1000, st, &o)
		if !o.IsCtrl {
			t.Fatalf("%v: not control", c.op)
		}
		if o.Taken != c.taken {
			t.Errorf("%v(a=%d): taken=%v, want %v", c.op, c.a, o.Taken, c.taken)
		}
		wantTarget := uint64(0x1000 + 4 + 5*4)
		if o.Target != wantTarget {
			t.Errorf("%v: target %#x, want %#x", c.op, o.Target, wantTarget)
		}
		next := o.NextPC(0x1000)
		if c.taken && next != wantTarget {
			t.Errorf("taken NextPC = %#x", next)
		}
		if !c.taken && next != 0x1004 {
			t.Errorf("not-taken NextPC = %#x", next)
		}
	}
}

func TestCallsAndReturns(t *testing.T) {
	st := newFakeState()
	in := Inst{Op: CALL, Rd: RA, Imm: 10}
	var o Outcome
	Execute(&in, 0x1000, st, &o)
	if !o.Taken || o.Target != 0x1000+4+40 {
		t.Fatalf("call outcome %+v", o)
	}
	if st.Reg(RA) != 0x1004 {
		t.Errorf("link = %#x", st.Reg(RA))
	}
	ret := Inst{Op: RET, Ra: RA}
	Execute(&ret, 0x2000, st, &o)
	if !o.Taken || o.Target != 0x1004 {
		t.Errorf("ret outcome %+v", o)
	}
	st.SetReg(5, 0x3000)
	callr := Inst{Op: CALLR, Rd: RA, Ra: 5}
	Execute(&callr, 0x1008, st, &o)
	if o.Target != 0x3000 || st.Reg(RA) != 0x100c {
		t.Errorf("callr outcome %+v link=%#x", o, st.Reg(RA))
	}
	jmp := Inst{Op: JMP, Ra: 5}
	Execute(&jmp, 0x1010, st, &o)
	if !o.IsCtrl || o.Target != 0x3000 || o.WroteReg {
		t.Errorf("jmp outcome %+v", o)
	}
}

func TestForkAndHalt(t *testing.T) {
	st := newFakeState()
	var o Outcome
	h := Inst{Op: HALT}
	Execute(&h, 0x1000, st, &o)
	if !o.Halt {
		t.Errorf("halt outcome %+v", o)
	}
}

func TestClassificationHelpers(t *testing.T) {
	checks := []struct {
		in                                           Inst
		branch, ctrl, load, store, complex, indirect bool
	}{
		{Inst{Op: ADD}, false, false, false, false, false, false},
		{Inst{Op: MUL}, false, false, false, false, true, false},
		{Inst{Op: DIV}, false, false, false, false, true, false},
		{Inst{Op: LD}, false, false, true, false, false, false},
		{Inst{Op: LDBU}, false, false, true, false, false, false},
		{Inst{Op: ST}, false, false, false, true, false, false},
		{Inst{Op: BEQ}, true, true, false, false, false, false},
		{Inst{Op: BGE}, true, true, false, false, false, false},
		{Inst{Op: BR}, false, true, false, false, false, false},
		{Inst{Op: JMP}, false, true, false, false, false, true},
		{Inst{Op: CALL}, false, true, false, false, false, false},
		{Inst{Op: CALLR}, false, true, false, false, false, true},
		{Inst{Op: RET}, false, true, false, false, false, true},
	}
	for _, c := range checks {
		if got := c.in.IsCondBranch(); got != c.branch {
			t.Errorf("%v IsCondBranch = %v", c.in.Op, got)
		}
		if got := c.in.IsCtrl(); got != c.ctrl {
			t.Errorf("%v IsCtrl = %v", c.in.Op, got)
		}
		if got := c.in.IsLoad(); got != c.load {
			t.Errorf("%v IsLoad = %v", c.in.Op, got)
		}
		if got := c.in.IsStore(); got != c.store {
			t.Errorf("%v IsStore = %v", c.in.Op, got)
		}
		if got := c.in.IsComplex(); got != c.complex {
			t.Errorf("%v IsComplex = %v", c.in.Op, got)
		}
		if got := c.in.IsIndirectCtrl(); got != c.indirect {
			t.Errorf("%v IsIndirectCtrl = %v", c.in.Op, got)
		}
	}
}

func TestDestAndSources(t *testing.T) {
	in := Inst{Op: ADD, Rd: 3, Ra: 1, Rb: 2}
	if d, ok := in.Dest(); !ok || d != 3 {
		t.Errorf("add dest = %v,%v", d, ok)
	}
	in = Inst{Op: ST, Rd: 3, Ra: 1}
	if _, ok := in.Dest(); ok {
		t.Error("store must have no dest")
	}
	srcs := in.Sources()
	if len(srcs) != 2 {
		t.Errorf("store sources = %v", srcs)
	}
	cmov := Inst{Op: CMOVEQ, Rd: 3, Ra: 1, Rb: 2}
	srcs = cmov.Sources()
	if len(srcs) != 3 {
		t.Errorf("cmov must read rd too: %v", srcs)
	}
	dup := Inst{Op: ADD, Rd: 3, Ra: 1, Rb: 1}
	if got := dup.Sources(); len(got) != 1 {
		t.Errorf("duplicate source not deduped: %v", got)
	}
	zeroSrc := Inst{Op: ADD, Rd: 3, Ra: Zero, Rb: Zero}
	if got := zeroSrc.Sources(); len(got) != 0 {
		t.Errorf("zero register must not be a source: %v", got)
	}
}

// Property: execution never writes a register it does not declare as Dest,
// and branch targets match BranchTarget.
func TestQuickExecuteDeclaredEffects(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		in := Inst{
			Op:  Op(rng.Intn(int(numOps))),
			Rd:  Reg(rng.Intn(NumRegs)),
			Ra:  Reg(rng.Intn(NumRegs)),
			Rb:  Reg(rng.Intn(NumRegs)),
			Imm: int32(rng.Uint32()),
		}
		st := newFakeState()
		for r := 1; r < NumRegs; r++ {
			st.regs[r] = rng.Uint64() % (1 << 20) // keep addresses mapped-ish
		}
		before := st.regs
		var o Outcome
		Execute(&in, 0x1000, st, &o)
		dest, hasDest := in.Dest()
		for r := 1; r < NumRegs; r++ {
			if Reg(r) != dest && st.regs[r] != before[r] {
				t.Fatalf("%v wrote undeclared register %v", in.Op, Reg(r))
			}
			if !hasDest && st.regs[r] != before[r] {
				t.Fatalf("%v wrote %v without a Dest", in.Op, Reg(r))
			}
		}
		if o.WroteReg && (!hasDest || o.Rd != dest) {
			t.Fatalf("%v outcome dest %v disagrees with Dest() %v/%v", in.Op, o.Rd, dest, hasDest)
		}
		if o.IsCtrl && in.IsDirectCtrl() && o.Target != in.BranchTarget(0x1000) {
			t.Fatalf("%v target %#x != BranchTarget %#x", in.Op, o.Target, in.BranchTarget(0x1000))
		}
	}
}

func TestDisasmCoversAllOpcodes(t *testing.T) {
	for op := Op(0); op < numOps; op++ {
		in := Inst{Op: op, Rd: 1, Ra: 2, Rb: 3, Imm: 4}
		s := in.Disasm(0x1000)
		if s == "" {
			t.Errorf("empty disasm for %v", op)
		}
	}
	// Strings must be stable enough for golden output.
	in := Inst{Op: LD, Rd: 3, Ra: 1, Imm: 16}
	if got := in.Disasm(0); got != "ld r3, 16(r1)" {
		t.Errorf("disasm = %q", got)
	}
	br := Inst{Op: BEQ, Ra: 1, Imm: 2}
	if got := br.Disasm(0x1000); got != "beq r1, 0x100c" {
		t.Errorf("disasm = %q", got)
	}
}

// negU64 returns the two's-complement encoding of -x.
func negU64(x uint64) uint64 { return ^x + 1 }
