// Package compiled_test holds the per-opcode golden step table. The
// directory has no non-test code: it keeps the name of the predecoded
// engine these cases were first written for, and the table now holds the
// one functional model, cpu.Stepper, outcome-for-outcome equal to
// isa.Execute driven directly over a flat register file and a Memory.
package compiled_test

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/cpu"
	"repro/internal/isa"
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

// goldenCase executes one instruction on the Stepper and on the reference
// from identical state. regs seeds the register file; stores8 seeds memory (8-byte
// writes).
type goldenCase struct {
	name    string
	in      isa.Inst
	regs    map[isa.Reg]uint64
	stores8 map[uint64]uint64
}

// TestStepGolden holds Stepper.Step outcome-for-outcome equal to
// isa.Execute for every opcode, and the state the Stepper is left in (PC,
// Halted, register file, memory) equal to the reference's: shift-amount
// masking, the LDIH immediate, LDW sign extension, CMOV with the Zero
// destination, fault paths, and link-register aliasing.
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
		// reported and the Zero slot must stay 0.
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

		{name: "halt", in: isa.Inst{Op: isa.HALT}},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			im, err := asm.NewImage(&asm.Program{Base: base, Insts: []isa.Inst{tc.in}})
			if err != nil {
				t.Fatal(err)
			}

			ref := &refState{m: mem.New()}
			sMem := mem.New()
			for addr, v := range tc.stores8 {
				ref.m.WriteU64(addr, v)
				sMem.WriteU64(addr, v)
			}
			var regs [isa.NumRegs]uint64
			for r, v := range tc.regs {
				regs[r] = v
			}
			ref.regs = regs

			s := cpu.NewStepper(im, sMem, base)
			s.SetRegs(&regs)

			var want isa.Outcome
			isa.Execute(&tc.in, base, ref, &want)

			var got isa.Outcome
			in, err := s.Step(&got)
			if err != nil {
				t.Fatalf("Step: %v", err)
			}
			if *in != tc.in {
				t.Errorf("Step returned %v, want %v", in, tc.in)
			}
			if got != want {
				t.Errorf("outcome mismatch:\n got  %+v\n want %+v", got, want)
			}

			wantPC := want.NextPC(base)
			if want.Halt {
				wantPC = base // PC parks on the HALT
			}
			if s.PC() != wantPC {
				t.Errorf("pc = %#x, want %#x", s.PC(), wantPC)
			}
			if s.Halted() != want.Halt {
				t.Errorf("halted = %v, want %v", s.Halted(), want.Halt)
			}

			var gotRegs [isa.NumRegs]uint64
			s.CopyRegs(&gotRegs)
			if gotRegs != ref.regs {
				t.Errorf("register files diverge:\n got  %v\n want %v", gotRegs, ref.regs)
			}
			if !sMem.Snapshot().Equal(ref.m.Snapshot()) {
				t.Errorf("memories diverge after %v", tc.in.Op)
			}
		})
	}
}
