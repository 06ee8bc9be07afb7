package autoslice

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/isa"
	"repro/internal/slicehw"
)

func alu(op isa.Op, rd, ra, rb isa.Reg) slot {
	return slot{in: isa.Inst{Op: op, Rd: rd, Ra: ra, Rb: rb}}
}

func imm(op isa.Op, rd, ra isa.Reg, v int32) slot {
	return slot{in: isa.Inst{Op: op, Rd: rd, Ra: ra, Imm: v}}
}

func TestConstFoldStrengthReduction(t *testing.T) {
	// r1 = 8; r2 = r3 * r1 → r2 = r3 << 3.
	out := constFold([]slot{
		imm(isa.LDI, 1, 0, 8),
		alu(isa.MUL, 2, 3, 1),
	})
	if len(out) != 2 {
		t.Fatalf("len = %d", len(out))
	}
	if in := out[1].in; in.Op != isa.SLLI || in.Ra != 3 || in.Imm != 3 {
		t.Errorf("MUL by 8 became %v, want SLLI r3, 3", in)
	}

	// r1 = 0; r4 = r1 + r5 → move; r6 = s4add(r7, r1) → r7 << 2.
	out = constFold([]slot{
		imm(isa.LDI, 1, 0, 0),
		alu(isa.ADD, 4, 1, 5),
		alu(isa.S4ADD, 6, 7, 1),
	})
	if in := out[1].in; in.Op != isa.OR || in.Ra != 5 {
		t.Errorf("ADD of zero became %v, want a move of r5", in)
	}
	if in := out[2].in; in.Op != isa.SLLI || in.Ra != 7 || in.Imm != 2 {
		t.Errorf("S4ADD of zero became %v, want SLLI r7, 2", in)
	}
}

func TestConstFoldWholeInstruction(t *testing.T) {
	// r1 = 6; r2 = r1 + 4 → r2 = 10, and the chained r3 = r2 + 1 → 11.
	out := constFold([]slot{
		imm(isa.LDI, 1, 0, 6),
		imm(isa.ADDI, 2, 1, 4),
		imm(isa.ADDI, 3, 2, 1),
	})
	if in := out[1].in; in.Op != isa.LDI || in.Imm != 10 {
		t.Errorf("known ADDI became %v, want LDI 10", in)
	}
	if in := out[2].in; in.Op != isa.LDI || in.Imm != 11 {
		t.Errorf("constant did not propagate through the chain: %v", in)
	}
}

func TestConstFoldResolvesCMOV(t *testing.T) {
	// Guard known zero: CMOVEQ fires → plain move of the source.
	out := constFold([]slot{
		imm(isa.LDI, 1, 0, 0),
		alu(isa.CMOVEQ, 2, 1, 3),
	})
	if in := out[1].in; in.Op != isa.OR || in.Ra != 3 {
		t.Errorf("firing CMOV became %v, want a move of r3", in)
	}
	// Guard known nonzero: CMOVEQ cannot fire → the slot disappears.
	out = constFold([]slot{
		imm(isa.LDI, 1, 0, 7),
		alu(isa.CMOVEQ, 2, 1, 3),
	})
	if len(out) != 1 {
		t.Errorf("non-firing CMOV survived: %v", out)
	}
}

// regFile is a plain register file, the state the reference isa.Execute
// runs against.
type regFile [isa.NumRegs]uint64

func (f *regFile) Reg(r isa.Reg) uint64 { return f[r] }
func (f *regFile) SetReg(r isa.Reg, v uint64) {
	if r != isa.Zero {
		f[r] = v
	}
}
func (f *regFile) Load(uint64, int) (uint64, bool) { return 0, false }
func (f *regFile) Store(uint64, int, uint64) bool  { return false }

// execRef runs in through isa.Execute with r1 = a and r2 = b, writing to
// r3 whatever in's destination, and reports what it wrote.
func execRef(in isa.Inst, a, b uint64) (uint64, bool) {
	var f regFile
	f[1], f[2] = a, b
	in.Rd = 3
	var o isa.Outcome
	isa.Execute(&in, 0, &f, &o)
	return o.Value, o.WroteReg
}

// Every opcode constValue folds computes what isa.Execute computes, also
// when the destination is Zero (Execute then writes nothing, but a fold
// still needs the value); no other opcode folds.
func TestConstValueMatchesExecute(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	edges := []uint64{0, 1, 63, 64, 1 << 63, math.MaxUint64}
	for op := isa.NOP; op <= isa.HALT; op++ {
		folds := op >= isa.ADD && op <= isa.LDIH
		for i := 0; i < 256; i++ {
			a, b, imm := rng.Uint64(), rng.Uint64(), int32(rng.Uint32())
			if i < len(edges)*len(edges) {
				a, b, imm = edges[i/len(edges)], edges[i%len(edges)], int32(i-18)
			}
			known := func(r isa.Reg) (uint64, bool) {
				switch r {
				case isa.Zero:
					return 0, true
				case 1:
					return a, true
				case 2:
					return b, true
				}
				return 0, false
			}
			for _, rd := range []isa.Reg{isa.Zero, 3} {
				in := isa.Inst{Op: op, Rd: rd, Ra: 1, Rb: 2, Imm: imm}
				got, ok := constValue(&in, known)
				if ok != folds {
					t.Fatalf("%v: folds = %t, want %t", &in, ok, folds)
				}
				if !folds {
					continue
				}
				if want, wrote := execRef(in, a, b); !wrote || got != want {
					t.Fatalf("%v with r1=%#x r2=%#x: folded %#x, Execute gives %#x (wrote %t)",
						&in, a, b, got, want, wrote)
				}
			}
		}
	}
}

// A conditional move with a known guard resolves as isa.Execute decides:
// a firing move becomes a plain move of its source, a non-firing one
// disappears.
func TestConstFoldCMOVMatchesExecute(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	guards := []int32{0, 1, -1, math.MaxInt32, math.MinInt32}
	for i := 0; i < 32; i++ {
		guards = append(guards, int32(rng.Uint32()))
	}
	for op := isa.CMOVEQ; op <= isa.CMOVLE; op++ {
		for _, g := range guards {
			for _, rd := range []isa.Reg{isa.Zero, 4} {
				out := constFold([]slot{imm(isa.LDI, 1, 0, g), alu(op, rd, 1, 2)})
				_, fires := execRef(isa.Inst{Op: op, Ra: 1, Rb: 2}, uint64(int64(g)), rng.Uint64())
				if moved := len(out) == 2; moved != fires {
					t.Fatalf("%v r%d, r1=%d: folded to %d slots, Execute fires = %t", op, rd, g, len(out), fires)
				}
				if fires {
					if in := out[1].in; in != movInst(rd, 2) {
						t.Errorf("%v r%d, r1=%d became %v, want a move of r2", op, rd, g, &in)
					}
				}
			}
		}
	}
}

func TestDedupDropsRecomputation(t *testing.T) {
	// The unrolled-loop shape: the same feeder computed once per instance.
	out := dedup([]slot{
		imm(isa.ADDI, 2, 1, 4),
		imm(isa.ADDI, 3, 2, 1),
		imm(isa.ADDI, 2, 1, 4), // recomputes what r2 already holds
	})
	if len(out) != 2 {
		t.Fatalf("len = %d, want 2: %v", len(out), out)
	}

	// An intervening redefinition of the source makes it a different value.
	out = dedup([]slot{
		imm(isa.ADDI, 2, 1, 4),
		imm(isa.ADDI, 1, 1, 8),
		imm(isa.ADDI, 2, 1, 4), // same text, new r1: must survive
	})
	if len(out) != 3 {
		t.Fatalf("len = %d, want 3: %v", len(out), out)
	}

	// PGI slots are one prediction each and are never dropped.
	pgi := slot{in: isa.Inst{Op: isa.OR, Rd: isa.AT, Ra: 1}, pgi: &slicehw.PGI{BranchPC: 0x2000}}
	pgi2 := slot{in: isa.Inst{Op: isa.OR, Rd: isa.AT, Ra: 1}, pgi: &slicehw.PGI{BranchPC: 0x2000}}
	out = dedup([]slot{pgi, pgi2})
	if len(out) != 2 {
		t.Fatalf("duplicate PGI slot was dropped")
	}
}

func TestDeadCodeKeepsRootChains(t *testing.T) {
	out := deadCode([]slot{
		imm(isa.ADDI, 3, 1, 8), // feeds the load address
		{in: isa.Inst{Op: isa.LD, Rd: 4, Ra: 3}, problemLoad: 0x2000}, // root
		imm(isa.ADDI, 9, 8, 1), // result never used
	})
	if len(out) != 2 {
		t.Fatalf("len = %d, want 2: %v", len(out), out)
	}
	if out[0].in.Rd != 3 || out[1].problemLoad != 0x2000 {
		t.Errorf("wrong survivors: %v", out)
	}
}

func TestRerollDetectsRepeatingTail(t *testing.T) {
	b1 := imm(isa.ADDI, 2, 2, 1)
	b2 := alu(isa.ADD, 3, 3, 2)
	pro, body, reps := reroll([]slot{
		imm(isa.ADDI, 5, 5, 1), // prologue
		b1, b2, b1, b2, b1, b2,
	})
	if reps != 3 {
		t.Fatalf("reps = %d, want 3", reps)
	}
	if len(pro) != 1 || len(body) != 2 {
		t.Fatalf("pro %d / body %d, want 1 / 2", len(pro), len(body))
	}
	if !blockEq(body, []slot{b1, b2}) {
		t.Errorf("body = %v", body)
	}

	// A tiny repetition saves nothing over the back edge it spends.
	pro, body, reps = reroll([]slot{b1, b1})
	if reps != 0 || len(pro) != 2 || body != nil {
		t.Errorf("unprofitable reroll taken: pro %v body %v reps %d", pro, body, reps)
	}
}
