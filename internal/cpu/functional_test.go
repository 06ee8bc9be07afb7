package cpu

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/mem"
)

// TestStepperSemantics pins the functional model's main-thread semantics
// around isa.Execute: where the PC rests, what a fault does, that writes
// to Zero vanish, and how leaving the image is reported. Each case steps
// its program to HALT (or the first error) and checks the end state.
func TestStepperSemantics(t *testing.T) {
	const (
		base     = uint64(0x1000)
		data     = uint64(0x40000)  // mapped by the case's memory
		unmapped = uint64(0x999000) // mappable, never written
	)
	cases := []struct {
		name  string
		insts []isa.Inst
		regs  map[isa.Reg]uint64 // seeded through SetRegs
		mem   map[uint64]uint64  // 8-byte words written before the run

		wantPC     uint64
		wantHalted bool
		wantErr    string // substring of the Step error; "" for none
		wantFaults int    // outcomes with Fault set
		wantRegs   map[isa.Reg]uint64
		wantMem    map[uint64]uint64
	}{
		{
			name:       "halt leaves the pc on the halt",
			insts:      []isa.Inst{{Op: isa.NOP}, {Op: isa.HALT}},
			wantPC:     base + isa.InstBytes,
			wantHalted: true,
		},
		{
			name: "faulting load reads zero and execution continues",
			insts: []isa.Inst{
				{Op: isa.LDI, Rd: 5, Imm: 0x1234}, // poison: the fault must overwrite it
				{Op: isa.LD, Rd: 5, Ra: 2, Imm: 0},
				{Op: isa.LDW, Rd: 6, Ra: isa.Zero, Imm: 0x10}, // null page
				{Op: isa.ADDI, Rd: 7, Ra: 5, Imm: 1},
				{Op: isa.HALT},
			},
			regs:       map[isa.Reg]uint64{2: unmapped, 6: 99},
			wantPC:     base + 4*isa.InstBytes,
			wantHalted: true,
			wantFaults: 2,
			wantRegs:   map[isa.Reg]uint64{5: 0, 6: 0, 7: 1},
		},
		{
			name: "faulting store is dropped and execution continues",
			insts: []isa.Inst{
				{Op: isa.ST, Rd: 1, Ra: isa.Zero, Imm: 0x400}, // null page
				{Op: isa.ST, Rd: 1, Ra: 2, Imm: 0},
				{Op: isa.ADDI, Rd: 3, Ra: isa.Zero, Imm: 9},
				{Op: isa.HALT},
			},
			regs:       map[isa.Reg]uint64{1: 0xAB, 2: data},
			wantPC:     base + 3*isa.InstBytes,
			wantHalted: true,
			wantFaults: 1,
			wantRegs:   map[isa.Reg]uint64{3: 9},
			wantMem:    map[uint64]uint64{0x400: 0, data: 0xAB},
		},
		{
			name: "writes to zero are discarded",
			insts: []isa.Inst{
				{Op: isa.LDI, Rd: isa.Zero, Imm: 123},
				{Op: isa.LD, Rd: isa.Zero, Ra: 2, Imm: 0},
				{Op: isa.CALL, Rd: isa.Zero, Imm: 0}, // link write into Zero
				{Op: isa.ADDI, Rd: 1, Ra: isa.Zero, Imm: 9},
				{Op: isa.HALT},
			},
			regs:       map[isa.Reg]uint64{isa.Zero: 0xBAD, 2: data}, // SetRegs ignores the Zero slot
			mem:        map[uint64]uint64{data: 77},
			wantPC:     base + 4*isa.InstBytes,
			wantHalted: true,
			wantRegs:   map[isa.Reg]uint64{isa.Zero: 0, 1: 9},
		},
		{
			name: "a branch off the image names the pc",
			insts: []isa.Inst{
				{Op: isa.NOP},
				{Op: isa.BR, Imm: 100},
			},
			wantPC:  base + 102*isa.InstBytes,
			wantErr: fmt.Sprintf("pc %#x is outside the image", base+102*isa.InstBytes),
		},
		{
			name: "an unaligned jump target is off the image",
			insts: []isa.Inst{
				{Op: isa.LDI, Rd: 1, Imm: int32(base + 2)},
				{Op: isa.JMP, Ra: 1},
			},
			wantPC:  base + 2,
			wantErr: fmt.Sprintf("pc %#x is outside the image", base+2),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			im, err := asm.NewImage(&asm.Program{Base: base, Insts: tc.insts})
			if err != nil {
				t.Fatal(err)
			}
			m := mem.New()
			for a, v := range tc.mem {
				m.WriteU64(a, v)
			}
			s := NewStepper(im, m, base)
			var regs [isa.NumRegs]uint64
			for r, v := range tc.regs {
				regs[r] = v
			}
			s.SetRegs(&regs)

			faults := 0
			for i := 0; i < 100 && !s.Halted(); i++ {
				pc := s.PC()
				var out isa.Outcome
				in, err := s.Step(&out)
				if err != nil {
					if tc.wantErr == "" || !strings.Contains(err.Error(), tc.wantErr) {
						t.Fatalf("Step at %#x: %v, want error containing %q", pc, err, tc.wantErr)
					}
					break
				}
				if want := &tc.insts[(pc-base)/isa.InstBytes]; *in != *want {
					t.Fatalf("Step at %#x returned %v, want %v", pc, in, want)
				}
				if out.Fault {
					faults++
				}
			}
			if s.PC() != tc.wantPC || s.Halted() != tc.wantHalted {
				t.Errorf("pc=%#x halted=%t, want pc=%#x halted=%t", s.PC(), s.Halted(), tc.wantPC, tc.wantHalted)
			}
			if faults != tc.wantFaults {
				t.Errorf("%d faulting outcomes, want %d", faults, tc.wantFaults)
			}
			s.CopyRegs(&regs)
			for r, v := range tc.wantRegs {
				if regs[r] != v || s.Reg(r) != v {
					t.Errorf("r%d = %#x (Reg %#x), want %#x", r, regs[r], s.Reg(r), v)
				}
			}
			for a, v := range tc.wantMem {
				if got := s.Mem().ReadU64(a); got != v {
					t.Errorf("mem[%#x] = %#x, want %#x", a, got, v)
				}
			}
		})
	}
}

// TestRunFunctionalReportsOffImage: RunFunctional stops at the first
// off-image PC and names it along with the instructions retired so far.
func TestRunFunctionalReportsOffImage(t *testing.T) {
	im, err := asm.NewImage(&asm.Program{Base: 0x1000, Insts: []isa.Inst{
		{Op: isa.LDI, Rd: 1, Imm: 5},
		{Op: isa.BR, Imm: 100},
	}})
	if err != nil {
		t.Fatal(err)
	}
	st, err := RunFunctional(im, mem.New(), 0x1000, 1<<20)
	want := "fell off the image at 0x1198 after 2 instructions"
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want it to contain %q", err, want)
	}
	if st.Retired != 2 || st.PC != 0x1198 || st.Halted || st.Regs[1] != 5 {
		t.Errorf("state = %+v, want 2 retired at pc 0x1198 with r1 = 5", st)
	}
}
