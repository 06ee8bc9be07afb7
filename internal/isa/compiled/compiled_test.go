package compiled_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/isa/compiled"
	"repro/internal/mem"
)

const base = uint64(0x1000)

// refState adapts a flat register file and a Memory to isa.State, so
// isa.Execute can serve as the golden reference.
type refState struct {
	regs [isa.NumRegs]uint64
	m    *mem.Memory
}

func (s *refState) Reg(r isa.Reg) uint64 {
	if r == isa.Zero {
		return 0
	}
	return s.regs[r]
}

func (s *refState) SetReg(r isa.Reg, v uint64) {
	if r != isa.Zero {
		s.regs[r] = v
	}
}

func (s *refState) Load(addr uint64, size int) (uint64, bool)  { return s.m.Read(addr, size) }
func (s *refState) Store(addr uint64, size int, v uint64) bool { return s.m.Write(addr, size, v) }

func image(t testing.TB, progs ...*asm.Program) *asm.Image {
	t.Helper()
	im, err := asm.NewImage(progs...)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

// interpRun mirrors cpu.RunFunctionalInterp against a refState: the
// reference loop every whole-program comparison below diffs Run against.
func interpRun(t testing.TB, im *asm.Image, st *refState, entry, maxInsts uint64) (pc, retired uint64, halted bool) {
	t.Helper()
	pc = entry
	for retired < maxInsts {
		in, ok := im.At(pc)
		if !ok {
			t.Fatalf("interp reference fell off the image at %#x after %d instructions", pc, retired)
		}
		var out isa.Outcome
		isa.Execute(in, pc, st, &out)
		retired++
		if out.Halt {
			return pc, retired, true
		}
		pc = out.NextPC(pc)
	}
	return pc, retired, false
}

// goldenCase executes one instruction on both engines from identical
// state. regs seeds the register file; stores8 seeds memory (8-byte
// writes).
type goldenCase struct {
	name    string
	in      isa.Inst
	regs    map[isa.Reg]uint64
	stores8 map[uint64]uint64
}

// TestStepGolden holds Machine.Step outcome-for-outcome equal to
// isa.Execute for every opcode, including the edges predecode could get
// wrong: immediate pre-masking for shifts, the pre-shifted LDIH immediate,
// LDW sign extension, CMOV with the Zero destination, fault paths, and
// link-register aliasing.
func TestStepGolden(t *testing.T) {
	const (
		minI64 = uint64(1) << 63 // math.MinInt64 as a bit pattern
		data   = uint64(0x40000) // mapped scratch page
	)
	cases := []goldenCase{
		{name: "nop", in: isa.Inst{Op: isa.NOP}},

		{name: "add", in: isa.Inst{Op: isa.ADD, Rd: 1, Ra: 2, Rb: 3},
			regs: map[isa.Reg]uint64{2: 7, 3: ^uint64(0)}},
		{name: "add/rd=zero", in: isa.Inst{Op: isa.ADD, Rd: isa.Zero, Ra: 2, Rb: 3},
			regs: map[isa.Reg]uint64{2: 7, 3: 9}},
		{name: "sub/underflow", in: isa.Inst{Op: isa.SUB, Rd: 1, Ra: 2, Rb: 3},
			regs: map[isa.Reg]uint64{2: 1, 3: 2}},
		{name: "mul/overflow", in: isa.Inst{Op: isa.MUL, Rd: 1, Ra: 2, Rb: 3},
			regs: map[isa.Reg]uint64{2: 0x123456789, 3: 0x987654321}},
		{name: "div", in: isa.Inst{Op: isa.DIV, Rd: 1, Ra: 2, Rb: 3},
			regs: map[isa.Reg]uint64{2: ^uint64(6) + 1, 3: 2}},
		{name: "div/by-zero", in: isa.Inst{Op: isa.DIV, Rd: 1, Ra: 2, Rb: 3},
			regs: map[isa.Reg]uint64{2: 42}},
		{name: "div/minint-by-minus-one", in: isa.Inst{Op: isa.DIV, Rd: 1, Ra: 2, Rb: 3},
			regs: map[isa.Reg]uint64{2: minI64, 3: ^uint64(0)}},
		{name: "and", in: isa.Inst{Op: isa.AND, Rd: 1, Ra: 2, Rb: 3},
			regs: map[isa.Reg]uint64{2: 0xF0F0, 3: 0xFF00}},
		{name: "or", in: isa.Inst{Op: isa.OR, Rd: 1, Ra: 2, Rb: 3},
			regs: map[isa.Reg]uint64{2: 0xF0F0, 3: 0xFF00}},
		{name: "xor", in: isa.Inst{Op: isa.XOR, Rd: 1, Ra: 2, Rb: 3},
			regs: map[isa.Reg]uint64{2: 0xF0F0, 3: 0xFF00}},

		{name: "sll/amount-63", in: isa.Inst{Op: isa.SLL, Rd: 1, Ra: 2, Rb: 3},
			regs: map[isa.Reg]uint64{2: 3, 3: 63}},
		{name: "sll/amount-64-masks-to-0", in: isa.Inst{Op: isa.SLL, Rd: 1, Ra: 2, Rb: 3},
			regs: map[isa.Reg]uint64{2: 3, 3: 64}},
		{name: "srl/amount-200-masks", in: isa.Inst{Op: isa.SRL, Rd: 1, Ra: 2, Rb: 3},
			regs: map[isa.Reg]uint64{2: ^uint64(0), 3: 200}},
		{name: "sra/negative", in: isa.Inst{Op: isa.SRA, Rd: 1, Ra: 2, Rb: 3},
			regs: map[isa.Reg]uint64{2: minI64, 3: 60}},

		{name: "cmpeq", in: isa.Inst{Op: isa.CMPEQ, Rd: 1, Ra: 2, Rb: 3},
			regs: map[isa.Reg]uint64{2: 5, 3: 5}},
		{name: "cmplt/signed", in: isa.Inst{Op: isa.CMPLT, Rd: 1, Ra: 2, Rb: 3},
			regs: map[isa.Reg]uint64{2: ^uint64(0), 3: 1}},
		{name: "cmple/equal", in: isa.Inst{Op: isa.CMPLE, Rd: 1, Ra: 2, Rb: 3},
			regs: map[isa.Reg]uint64{2: 9, 3: 9}},
		{name: "cmpult/unsigned", in: isa.Inst{Op: isa.CMPULT, Rd: 1, Ra: 2, Rb: 3},
			regs: map[isa.Reg]uint64{2: ^uint64(0), 3: 1}},
		{name: "cmpule", in: isa.Inst{Op: isa.CMPULE, Rd: 1, Ra: 2, Rb: 3},
			regs: map[isa.Reg]uint64{2: 1, 3: ^uint64(0)}},
		{name: "s4add", in: isa.Inst{Op: isa.S4ADD, Rd: 1, Ra: 2, Rb: 3},
			regs: map[isa.Reg]uint64{2: 10, 3: 100}},
		{name: "s8add", in: isa.Inst{Op: isa.S8ADD, Rd: 1, Ra: 2, Rb: 3},
			regs: map[isa.Reg]uint64{2: 10, 3: 100}},

		{name: "addi/negative", in: isa.Inst{Op: isa.ADDI, Rd: 1, Ra: 2, Imm: -5},
			regs: map[isa.Reg]uint64{2: 3}},
		{name: "andi/negative-extends", in: isa.Inst{Op: isa.ANDI, Rd: 1, Ra: 2, Imm: -16},
			regs: map[isa.Reg]uint64{2: 0x1234_5678_9ABC_DEFF}},
		{name: "ori", in: isa.Inst{Op: isa.ORI, Rd: 1, Ra: 2, Imm: 0x0F0},
			regs: map[isa.Reg]uint64{2: 0xF00}},
		{name: "xori/negative", in: isa.Inst{Op: isa.XORI, Rd: 1, Ra: 2, Imm: -1},
			regs: map[isa.Reg]uint64{2: 0x5555}},
		{name: "slli/63", in: isa.Inst{Op: isa.SLLI, Rd: 1, Ra: 2, Imm: 63},
			regs: map[isa.Reg]uint64{2: 3}},
		{name: "slli/neg-1-masks-to-63", in: isa.Inst{Op: isa.SLLI, Rd: 1, Ra: 2, Imm: -1},
			regs: map[isa.Reg]uint64{2: 3}},
		{name: "srli/70-masks-to-6", in: isa.Inst{Op: isa.SRLI, Rd: 1, Ra: 2, Imm: 70},
			regs: map[isa.Reg]uint64{2: ^uint64(0)}},
		{name: "srai/negative-value", in: isa.Inst{Op: isa.SRAI, Rd: 1, Ra: 2, Imm: 4},
			regs: map[isa.Reg]uint64{2: minI64}},
		{name: "cmpeqi/negative", in: isa.Inst{Op: isa.CMPEQI, Rd: 1, Ra: 2, Imm: -7},
			regs: map[isa.Reg]uint64{2: ^uint64(6) + 1}},
		{name: "cmplti", in: isa.Inst{Op: isa.CMPLTI, Rd: 1, Ra: 2, Imm: -1},
			regs: map[isa.Reg]uint64{2: ^uint64(1) + 1}},
		{name: "cmplei", in: isa.Inst{Op: isa.CMPLEI, Rd: 1, Ra: 2, Imm: 5},
			regs: map[isa.Reg]uint64{2: 5}},
		{name: "cmpulti/negative-imm-is-huge", in: isa.Inst{Op: isa.CMPULTI, Rd: 1, Ra: 2, Imm: -1},
			regs: map[isa.Reg]uint64{2: 5}},
		{name: "ldi/negative", in: isa.Inst{Op: isa.LDI, Rd: 1, Imm: -12345}},
		{name: "ldih/negative", in: isa.Inst{Op: isa.LDIH, Rd: 1, Ra: 2, Imm: -2},
			regs: map[isa.Reg]uint64{2: 0x10000}},

		{name: "cmoveq/fires", in: isa.Inst{Op: isa.CMOVEQ, Rd: 1, Ra: 2, Rb: 3},
			regs: map[isa.Reg]uint64{1: 99, 3: 7}},
		{name: "cmoveq/holds", in: isa.Inst{Op: isa.CMOVEQ, Rd: 1, Ra: 2, Rb: 3},
			regs: map[isa.Reg]uint64{1: 99, 2: 1, 3: 7}},
		{name: "cmovne/fires", in: isa.Inst{Op: isa.CMOVNE, Rd: 1, Ra: 2, Rb: 3},
			regs: map[isa.Reg]uint64{1: 99, 2: 1, 3: 7}},
		{name: "cmovlt/fires", in: isa.Inst{Op: isa.CMOVLT, Rd: 1, Ra: 2, Rb: 3},
			regs: map[isa.Reg]uint64{1: 99, 2: minI64, 3: 7}},
		{name: "cmovge/zero-fires", in: isa.Inst{Op: isa.CMOVGE, Rd: 1, Ra: 2, Rb: 3},
			regs: map[isa.Reg]uint64{1: 99, 3: 7}},
		{name: "cmovgt/holds-at-zero", in: isa.Inst{Op: isa.CMOVGT, Rd: 1, Ra: 2, Rb: 3},
			regs: map[isa.Reg]uint64{1: 99, 3: 7}},
		{name: "cmovle/fires", in: isa.Inst{Op: isa.CMOVLE, Rd: 1, Ra: 2, Rb: 3},
			regs: map[isa.Reg]uint64{1: 99, 2: ^uint64(0), 3: 7}},
		// The condition fires but the destination is Zero: no write may be
		// reported (Execute suppresses it; the compiled write lands in the
		// dump slot).
		{name: "cmoveq/rd-zero-fires", in: isa.Inst{Op: isa.CMOVEQ, Rd: isa.Zero, Ra: 2, Rb: 3},
			regs: map[isa.Reg]uint64{3: 7}},

		{name: "ld", in: isa.Inst{Op: isa.LD, Rd: 1, Ra: 2, Imm: 8},
			regs:    map[isa.Reg]uint64{2: data},
			stores8: map[uint64]uint64{data + 8: 0xDEAD_BEEF_CAFE_F00D}},
		{name: "ldw/sign-extends", in: isa.Inst{Op: isa.LDW, Rd: 1, Ra: 2},
			regs:    map[isa.Reg]uint64{2: data},
			stores8: map[uint64]uint64{data: 0xFFFF_8000}},
		{name: "ldw/positive", in: isa.Inst{Op: isa.LDW, Rd: 1, Ra: 2, Imm: 4},
			regs:    map[isa.Reg]uint64{2: data},
			stores8: map[uint64]uint64{data: 0x7FFF_FFFF_0000_0000}},
		{name: "ldbu/zero-extends", in: isa.Inst{Op: isa.LDBU, Rd: 1, Ra: 2},
			regs:    map[isa.Reg]uint64{2: data},
			stores8: map[uint64]uint64{data: 0xFF}},
		{name: "ld/fault-null-page", in: isa.Inst{Op: isa.LD, Rd: 1, Ra: 2, Imm: 0x10},
			regs: map[isa.Reg]uint64{1: 0x1234}},
		{name: "ld/fault-unmapped", in: isa.Inst{Op: isa.LD, Rd: 1, Ra: 2},
			regs: map[isa.Reg]uint64{1: 0x1234, 2: 0x999000}},
		{name: "ldw/fault-sign-extends-zero", in: isa.Inst{Op: isa.LDW, Rd: 1, Ra: 2},
			regs: map[isa.Reg]uint64{1: 0x1234, 2: 0x999000}},

		{name: "st", in: isa.Inst{Op: isa.ST, Rd: 3, Ra: 2, Imm: 16},
			regs:    map[isa.Reg]uint64{2: data, 3: 0x1122_3344_5566_7788},
			stores8: map[uint64]uint64{data: 1}},
		{name: "stw/truncates", in: isa.Inst{Op: isa.STW, Rd: 3, Ra: 2},
			regs:    map[isa.Reg]uint64{2: data, 3: 0x1122_3344_5566_7788},
			stores8: map[uint64]uint64{data: ^uint64(0)}},
		{name: "stb", in: isa.Inst{Op: isa.STB, Rd: 3, Ra: 2, Imm: 3},
			regs:    map[isa.Reg]uint64{2: data, 3: 0xABCD},
			stores8: map[uint64]uint64{data: ^uint64(0)}},
		{name: "st/rd-zero-stores-zero", in: isa.Inst{Op: isa.ST, Rd: isa.Zero, Ra: 2},
			regs:    map[isa.Reg]uint64{2: data},
			stores8: map[uint64]uint64{data: ^uint64(0)}},
		{name: "st/fault-null-page", in: isa.Inst{Op: isa.ST, Rd: 3, Ra: isa.Zero, Imm: 0x20},
			regs: map[isa.Reg]uint64{3: 42}},
		{name: "stw/fault-unmapped", in: isa.Inst{Op: isa.STW, Rd: 3, Ra: 2},
			regs: map[isa.Reg]uint64{2: 0x999000, 3: 42}},

		{name: "beq/taken", in: isa.Inst{Op: isa.BEQ, Ra: 2, Imm: 5}},
		{name: "beq/not-taken", in: isa.Inst{Op: isa.BEQ, Ra: 2, Imm: 5},
			regs: map[isa.Reg]uint64{2: 1}},
		{name: "bne/taken", in: isa.Inst{Op: isa.BNE, Ra: 2, Imm: -3},
			regs: map[isa.Reg]uint64{2: 1}},
		{name: "blt/taken-negative", in: isa.Inst{Op: isa.BLT, Ra: 2, Imm: 2},
			regs: map[isa.Reg]uint64{2: minI64}},
		{name: "ble/taken-zero", in: isa.Inst{Op: isa.BLE, Ra: 2, Imm: 2}},
		{name: "bgt/not-taken-zero", in: isa.Inst{Op: isa.BGT, Ra: 2, Imm: 2}},
		{name: "bge/taken-zero", in: isa.Inst{Op: isa.BGE, Ra: 2, Imm: 2}},
		{name: "br", in: isa.Inst{Op: isa.BR, Imm: 7}},
		{name: "br/backward-out-of-region", in: isa.Inst{Op: isa.BR, Imm: -100}},
		{name: "jmp", in: isa.Inst{Op: isa.JMP, Ra: 2},
			regs: map[isa.Reg]uint64{2: 0x2000}},
		{name: "call", in: isa.Inst{Op: isa.CALL, Rd: isa.RA, Imm: 3}},
		{name: "call/rd-zero", in: isa.Inst{Op: isa.CALL, Rd: isa.Zero, Imm: 3}},
		{name: "callr", in: isa.Inst{Op: isa.CALLR, Rd: isa.RA, Ra: 2},
			regs: map[isa.Reg]uint64{2: 0x3000}},
		// ra == rd: the target must be read before the link write.
		{name: "callr/ra-aliases-rd", in: isa.Inst{Op: isa.CALLR, Rd: 2, Ra: 2},
			regs: map[isa.Reg]uint64{2: 0x3000}},
		{name: "ret", in: isa.Inst{Op: isa.RET, Ra: isa.RA},
			regs: map[isa.Reg]uint64{isa.RA: 0x4000}},

		{name: "fork", in: isa.Inst{Op: isa.FORK, Imm: 3}},
		{name: "fork/negative-index", in: isa.Inst{Op: isa.FORK, Imm: -1}},
		{name: "halt", in: isa.Inst{Op: isa.HALT}},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			im := image(t, &asm.Program{Base: base, Insts: []isa.Inst{tc.in}})

			ref := &refState{m: mem.New()}
			maMem := mem.New()
			for addr, v := range tc.stores8 {
				ref.m.WriteU64(addr, v)
				maMem.WriteU64(addr, v)
			}
			var regs [isa.NumRegs]uint64
			for r, v := range tc.regs {
				regs[r] = v
			}
			ref.regs = regs

			ma := compiled.NewMachine(compiled.Compile(im), maMem, base)
			ma.SetRegs(&regs)

			var want isa.Outcome
			isa.Execute(&tc.in, base, ref, &want)

			var got isa.Outcome
			op, err := ma.Step(&got)
			if err != nil {
				t.Fatalf("Step: %v", err)
			}
			if op != tc.in.Op {
				t.Errorf("Step returned op %v, want %v", op, tc.in.Op)
			}
			if got != want {
				t.Errorf("outcome mismatch:\n got  %+v\n want %+v", got, want)
			}

			wantPC := want.NextPC(base)
			if want.Halt {
				wantPC = base // PC parks on the HALT
			}
			if ma.PC() != wantPC {
				t.Errorf("pc = %#x, want %#x", ma.PC(), wantPC)
			}
			if ma.Halted() != want.Halt {
				t.Errorf("halted = %v, want %v", ma.Halted(), want.Halt)
			}

			var gotRegs [isa.NumRegs]uint64
			ma.CopyRegs(&gotRegs)
			if gotRegs != ref.regs {
				t.Errorf("register files diverge:\n got  %v\n want %v", gotRegs, ref.regs)
			}
			if !maMem.Snapshot().Equal(ref.m.Snapshot()) {
				t.Errorf("memories diverge after %v", tc.in.Op)
			}
		})
	}
}

// TestStepLockstepFusedProgram single-steps a program built entirely from
// fusable pairs and holds every Outcome equal to isa.Execute's. Step must
// execute exactly one architectural instruction even when the slot it
// lands on is a fused superop — including a branch entering the *second*
// element of a fused pair.
func TestStepLockstepFusedProgram(t *testing.T) {
	p := &asm.Program{Base: base, Insts: []isa.Inst{
		{Op: isa.LDI, Rd: 1, Imm: 3},                  // +0  fuses with next
		{Op: isa.ADDI, Rd: 2, Ra: 1, Imm: 4},          // +4  r2 = 7
		{Op: isa.CMPEQ, Rd: 3, Ra: 1, Rb: 2},          // +8  fuses with next: r3 = 0
		{Op: isa.BNE, Ra: 3, Imm: 5},                  // +12 taken -> +36 (HALT); not taken first pass
		{Op: isa.S4ADD, Rd: 4, Ra: 1, Rb: isa.Zero},   // +16 fuses with next: r4 = 12
		{Op: isa.LD, Rd: 5, Ra: 4, Imm: 0x40000 - 12}, // +20 loads arena[0] = 77
		{Op: isa.CMPEQI, Rd: 6, Ra: 5, Imm: 77},       // +24 fuses with next: r6 = 1
		{Op: isa.BEQ, Ra: 6, Imm: -7},                 // +28 not taken (load hit 77)
		{Op: isa.BR, Imm: -6},                         // +32 -> +12: jumps INTO the fused pair at +8
		{Op: isa.HALT},                                // +36
	}}
	// The BR at +32 targets +12 — the BNE that is the *second* constituent
	// of the fused pair at +8. Its slot keeps its own plain decode, so the
	// re-entry must execute exactly the branch. On the second visit r3 is
	// poked to 1 below, making the re-entered branch taken (-> HALT).
	im := image(t, p)

	refMem, maMem := mem.New(), mem.New()
	refMem.WriteU64(0x40000, 77)
	maMem.WriteU64(0x40000, 77)

	ref := &refState{m: refMem}
	ma := compiled.NewMachine(compiled.Compile(im), maMem, base)

	pc := base
	for steps := 0; steps < 32; steps++ {
		in, ok := im.At(pc)
		if !ok {
			t.Fatalf("reference fell off the image at %#x", pc)
		}
		if pc == base+12 && steps > 3 {
			// Second visit to the BNE (entered mid-pair via the BR): make it
			// taken this time by poking r3 on both sides, so the
			// branch-into-fused-slot entry exercises the taken path too.
			ref.regs[3] = 1
			ma.SetReg(3, 1)
		}
		var want isa.Outcome
		isa.Execute(in, pc, ref, &want)
		var got isa.Outcome
		op, err := ma.Step(&got)
		if err != nil {
			t.Fatalf("Step at %#x: %v", pc, err)
		}
		if op != in.Op {
			t.Fatalf("at %#x: op %v, want %v", pc, op, in.Op)
		}
		if got != want {
			t.Fatalf("at %#x (%v): outcome mismatch\n got  %+v\n want %+v", pc, in.Op, got, want)
		}
		var gotRegs [isa.NumRegs]uint64
		ma.CopyRegs(&gotRegs)
		if gotRegs != ref.regs {
			t.Fatalf("at %#x: register files diverge", pc)
		}
		if want.Halt {
			if ma.PC() != pc {
				t.Fatalf("halt pc = %#x, want %#x", ma.PC(), pc)
			}
			return
		}
		pc = want.NextPC(pc)
		if ma.PC() != pc {
			t.Fatalf("pc = %#x, want %#x", ma.PC(), pc)
		}
	}
	t.Fatal("program did not halt within the step budget")
}

// fusedProg returns a program whose hot loop exercises all four fusion
// kinds, with an arena walk (s4add+ld and s8add+ld), cmp+branch loop
// control, and ldi+addi constant setup — plus an addi whose destination
// overwrites the ldi's.
func fusedProg() (*asm.Program, func(m *mem.Memory)) {
	const arena = uint64(0x40000)
	p := &asm.Program{Base: base, Insts: []isa.Inst{
		{Op: isa.LDI, Rd: 1, Imm: 0},            // +0   i = 0 (fuses with next)
		{Op: isa.ADDI, Rd: 2, Ra: 1, Imm: 16},   // +4   n = 16
		{Op: isa.LDI, Rd: 3, Imm: 100},          // +8   ldi+addi, rd aliased
		{Op: isa.ADDI, Rd: 3, Ra: 3, Imm: -58},  // +12  r3 = 42
		{Op: isa.LDI, Rd: 7, Imm: int32(arena)}, // +16  arena base
		// loop:
		{Op: isa.S4ADD, Rd: 4, Ra: 1, Rb: 7},   // +20  fused s4add+ldw
		{Op: isa.LDW, Rd: 5, Ra: 4, Imm: 0},    // +24
		{Op: isa.ADD, Rd: 6, Ra: 6, Rb: 5},     // +28  sum += arena32[i]
		{Op: isa.S8ADD, Rd: 4, Ra: 1, Rb: 7},   // +32  fused s8add+ld
		{Op: isa.LD, Rd: 5, Ra: 4, Imm: 256},   // +36
		{Op: isa.ADD, Rd: 6, Ra: 6, Rb: 5},     // +40  sum += arena64[i]
		{Op: isa.ADDI, Rd: 1, Ra: 1, Imm: 1},   // +44  i++
		{Op: isa.CMPLT, Rd: 8, Ra: 1, Rb: 2},   // +48  fused cmp+bne
		{Op: isa.BNE, Ra: 8, Imm: -9},          // +52  -> +20 while i < n
		{Op: isa.CMPEQI, Rd: 8, Ra: 6, Imm: 0}, // +56  fused cmpi+beq
		{Op: isa.BEQ, Ra: 8, Imm: 1},           // +60  sum != 0: skip the poison
		{Op: isa.LDI, Rd: 6, Imm: -1},          // +64  (not reached)
		{Op: isa.ST, Rd: 6, Ra: 7, Imm: -8},    // +68  spill sum
		{Op: isa.HALT},                         // +72
	}}
	init := func(m *mem.Memory) {
		for i := uint64(0); i < 16; i++ {
			m.Write(arena+i*4, 4, i*3+1)
			m.WriteU64(arena+256+i*8, i*7+1)
		}
	}
	return p, init
}

// TestRunFusedAgainstInterp runs the all-fusions program flat out on the
// compiled engine and diffs the final architectural state (registers, PC,
// retired count, halt flag, memory) against the isa.Execute reference loop.
func TestRunFusedAgainstInterp(t *testing.T) {
	p, init := fusedProg()
	im := image(t, p)

	refMem, maMem := mem.New(), mem.New()
	init(refMem)
	init(maMem)

	ref := &refState{m: refMem}
	refPC, refRetired, refHalted := interpRun(t, im, ref, base, 10_000)
	if !refHalted {
		t.Fatal("reference did not halt")
	}

	ma := compiled.NewMachine(compiled.Compile(im), maMem, base)
	retired, err := ma.Run(10_000)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if retired != refRetired {
		t.Errorf("retired %d, want %d", retired, refRetired)
	}
	if !ma.Halted() {
		t.Error("machine did not halt")
	}
	if ma.PC() != refPC {
		t.Errorf("pc = %#x, want %#x", ma.PC(), refPC)
	}
	var gotRegs [isa.NumRegs]uint64
	ma.CopyRegs(&gotRegs)
	if gotRegs != ref.regs {
		t.Errorf("register files diverge:\n got  %v\n want %v", gotRegs, ref.regs)
	}
	if !maMem.Snapshot().Equal(refMem.Snapshot()) {
		t.Error("memories diverge")
	}
	// Sanity that the program actually summed something (guards against a
	// vacuous pass where fusion skipped the loop body entirely).
	if gotRegs[6] == 0 {
		t.Error("loop body never ran: sum is zero")
	}

	// A second machine over the same compiled Program must be independent.
	maMem2 := mem.New()
	init(maMem2)
	ma2 := compiled.NewMachine(compiled.Cached(im), maMem2, base)
	if n, err := ma2.Run(10_000); err != nil || n != refRetired {
		t.Errorf("second machine: retired %d, err %v; want %d, nil", n, err, refRetired)
	}
}

// TestRunFusedLoadFault holds the fused s4add+load pair to the same
// fault semantics as the unfused sequence: the load reads zero and
// execution continues.
func TestRunFusedLoadFault(t *testing.T) {
	p := &asm.Program{Base: base, Insts: []isa.Inst{
		{Op: isa.LDI, Rd: 5, Imm: 0x1234},           // poison rd to prove the overwrite
		{Op: isa.S4ADD, Rd: 4, Ra: isa.Zero, Rb: 2}, // fused with next
		{Op: isa.LD, Rd: 5, Ra: 4, Imm: 0},          // faults: r2 is unmapped
		{Op: isa.ADDI, Rd: 6, Ra: 5, Imm: 1},        // runs after the fault
		{Op: isa.HALT},
	}}
	im := image(t, p)
	ma := compiled.NewMachine(compiled.Compile(im), mem.New(), base)
	ma.SetReg(2, 0x999000)
	retired, err := ma.Run(100)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if retired != 5 {
		t.Errorf("retired %d, want 5", retired)
	}
	if got := ma.Reg(5); got != 0 {
		t.Errorf("faulting fused load left r5 = %#x, want 0", got)
	}
	if got := ma.Reg(6); got != 1 {
		t.Errorf("post-fault execution got r6 = %#x, want 1", got)
	}
}

// TestRunMaxInstsBoundary holds Run to exact retired counts when the
// budget splits a fused pair: only the first constituent executes, the PC
// lands between the two, and resuming completes the pair.
func TestRunMaxInstsBoundary(t *testing.T) {
	p, init := fusedProg()
	im := image(t, p)

	// Reference: interp state after each prefix length.
	for _, budget := range []uint64{1, 2, 3, 5, 7, 13, 14, 50, 51, 97} {
		refMem, maMem := mem.New(), mem.New()
		init(refMem)
		init(maMem)
		ref := &refState{m: refMem}
		refPC, refRetired, refHalted := interpRun(t, im, ref, base, budget)

		ma := compiled.NewMachine(compiled.Compile(im), maMem, base)
		retired, err := ma.Run(budget)
		if err != nil {
			t.Fatalf("budget %d: Run: %v", budget, err)
		}
		if retired != refRetired {
			t.Errorf("budget %d: retired %d, want %d", budget, retired, refRetired)
		}
		if ma.PC() != refPC && !refHalted {
			t.Errorf("budget %d: pc = %#x, want %#x", budget, ma.PC(), refPC)
		}
		var gotRegs [isa.NumRegs]uint64
		ma.CopyRegs(&gotRegs)
		if gotRegs != ref.regs {
			t.Errorf("budget %d: register files diverge", budget)
		}

		// Resume to completion; the split pair's second half must retire.
		rest, err := ma.Run(10_000)
		if err != nil {
			t.Fatalf("budget %d resume: %v", budget, err)
		}
		if !refHalted {
			ref2 := &refState{m: refMem, regs: ref.regs}
			_, restRef, _ := interpRun(t, im, ref2, refPC, 10_000)
			if rest != restRef {
				t.Errorf("budget %d resume: retired %d, want %d", budget, rest, restRef)
			}
			var finalRegs [isa.NumRegs]uint64
			ma.CopyRegs(&finalRegs)
			if finalRegs != ref2.regs {
				t.Errorf("budget %d: final register files diverge", budget)
			}
		}
		if !ma.Halted() {
			t.Errorf("budget %d: resume did not reach HALT", budget)
		}
	}
}

// TestRunOffImage holds both engines to the same off-image error.
func TestRunOffImage(t *testing.T) {
	p := &asm.Program{Base: base, Insts: []isa.Inst{
		{Op: isa.LDI, Rd: 1, Imm: 0x5003}, // unaligned target
		{Op: isa.BR, Imm: 100},            // off the end of the region
	}}
	im := image(t, p)
	ma := compiled.NewMachine(compiled.Compile(im), mem.New(), base)
	retired, err := ma.Run(100)
	if retired != 2 {
		t.Errorf("retired %d, want 2", retired)
	}
	var off *compiled.OffImageError
	if !errors.As(err, &off) {
		t.Fatalf("Run returned %v (%T), want *OffImageError", err, err)
	}
	wantPC := base + 2*isa.InstBytes + 100*isa.InstBytes
	if off.PC != wantPC {
		t.Errorf("OffImageError.PC = %#x, want %#x", off.PC, wantPC)
	}
	if !strings.Contains(err.Error(), "outside the image") {
		t.Errorf("error text %q", err)
	}

	// Unaligned PC inside the region: also off-image.
	ma2 := compiled.NewMachine(compiled.Compile(im), mem.New(), base)
	if _, err := ma2.Run(1); err != nil {
		t.Fatalf("first inst: %v", err)
	}
	ma2.SetPC(base + 2)
	if _, err := ma2.Run(1); err == nil {
		t.Error("Run at an unaligned PC returned nil error")
	}
	var out isa.Outcome
	if _, err := ma2.Step(&out); err == nil {
		t.Error("Step at an unaligned PC returned nil error")
	}
}

// TestRunHalted: a halted machine retires nothing until redirected.
func TestRunHalted(t *testing.T) {
	p := &asm.Program{Base: base, Insts: []isa.Inst{{Op: isa.HALT}}}
	im := image(t, p)
	ma := compiled.NewMachine(compiled.Compile(im), mem.New(), base)
	if n, err := ma.Run(100); n != 1 || err != nil {
		t.Fatalf("Run = (%d, %v), want (1, nil)", n, err)
	}
	if n, err := ma.Run(100); n != 0 || err != nil {
		t.Errorf("halted Run = (%d, %v), want (0, nil)", n, err)
	}
	if ma.PC() != base {
		t.Errorf("halted pc = %#x, want %#x (parked on the HALT)", ma.PC(), base)
	}
	ma.SetPC(base)
	if ma.Halted() {
		t.Error("SetPC did not clear the halted flag")
	}
	if n, _ := ma.Run(100); n != 1 {
		t.Errorf("redirected Run retired %d, want 1", n)
	}
}

// TestZeroRegisterInvariant: no instruction sequence may make the
// architectural Zero register read nonzero — compiled writes to Zero land
// in the dump slot, and SetRegs must restore the invariant even when
// handed a corrupted file.
func TestZeroRegisterInvariant(t *testing.T) {
	p := &asm.Program{Base: base, Insts: []isa.Inst{
		{Op: isa.LDI, Rd: isa.Zero, Imm: 123},
		{Op: isa.ADDI, Rd: isa.Zero, Ra: isa.Zero, Imm: 55}, // fuses ldi+addi into Zero
		{Op: isa.LD, Rd: isa.Zero, Ra: isa.Zero, Imm: 0x10}, // faulting load into Zero
		{Op: isa.CALL, Rd: isa.Zero, Imm: 0},                // link write into Zero
		{Op: isa.ADDI, Rd: 1, Ra: isa.Zero, Imm: 9},         // r1 = 0 + 9
		{Op: isa.HALT},
	}}
	im := image(t, p)
	ma := compiled.NewMachine(compiled.Compile(im), mem.New(), base)
	var seeded [isa.NumRegs]uint64
	seeded[isa.Zero] = 0xBAD // SetRegs must discard this
	ma.SetRegs(&seeded)
	if _, err := ma.Run(100); err != nil {
		t.Fatal(err)
	}
	if got := ma.Reg(isa.Zero); got != 0 {
		t.Errorf("Zero reads %#x", got)
	}
	if got := ma.Reg(1); got != 9 {
		t.Errorf("r1 = %d, want 9 (Zero leaked a value)", got)
	}
}
