// Package isa defines SSA-64, the 64-bit RISC instruction set executed by
// the simulator. The ISA is Alpha-flavoured — compare-to-zero conditional
// branches, scaled adds (s4add/s8add), conditional moves for if-conversion,
// and a hardwired zero register — because the paper's slices were written in
// Alpha assembly and rely on exactly these idioms (Figure 4 and 5 of the
// paper). Instructions have fixed 4-byte program-counter spacing so that
// fetch-width arithmetic works like a real front end; the simulator fetches
// decoded instructions, like a trace cache would, so there is no binary
// encoding.
package isa

import "fmt"

// Reg names one of the 64 architectural integer registers. R0 reads as zero
// and writes to it are discarded.
type Reg uint8

// NumRegs is the architectural register count.
const NumRegs = 64

// Register aliases used by the assembler and the calling convention.
const (
	// Zero is hardwired to 0.
	Zero Reg = 0
	// RA is the conventional link (return address) register.
	RA Reg = 60
	// SP is the conventional stack pointer.
	SP Reg = 61
	// GP is the conventional global pointer; the paper's slices take gp as
	// a live-in to reach global data structures.
	GP Reg = 62
	// AT is the assembler temporary.
	AT Reg = 63
)

func (r Reg) String() string {
	switch r {
	case Zero:
		return "zero"
	case RA:
		return "ra"
	case SP:
		return "sp"
	case GP:
		return "gp"
	case AT:
		return "at"
	}
	return fmt.Sprintf("r%d", uint8(r))
}

// Op is an SSA-64 opcode.
type Op uint8

// Opcode space. The groupings matter: classification helpers below switch on
// these ranges, and the execution-unit assignment in the CPU model uses
// IsComplex / IsMem / IsCtrl.
const (
	NOP Op = iota

	// Register-register ALU.
	ADD
	SUB
	MUL
	DIV
	AND
	OR
	XOR
	SLL
	SRL
	SRA
	CMPEQ
	CMPLT // signed <
	CMPLE // signed <=
	CMPULT
	CMPULE
	S4ADD // rd = ra*4 + rb
	S8ADD // rd = ra*8 + rb

	// Register-immediate ALU.
	ADDI
	ANDI
	ORI
	XORI
	SLLI
	SRLI
	SRAI
	CMPEQI
	CMPLTI
	CMPLEI
	CMPULTI
	LDI  // rd = signext(imm)
	LDIH // rd = ra + imm<<16

	// Conditional moves (if-conversion). rd = rb if the condition on ra
	// holds, else rd is unchanged.
	CMOVEQ // ra == 0
	CMOVNE // ra != 0
	CMOVLT // ra < 0 (signed)
	CMOVGE // ra >= 0
	CMOVGT // ra > 0
	CMOVLE // ra <= 0

	// Memory. Effective address is ra + imm. LD/ST move 8 bytes, LDW/STW 4
	// (loads sign-extend), LDBU/STB 1 (LDBU zero-extends).
	LD
	LDW
	LDBU
	ST
	STW
	STB

	// Control. Conditional branches test ra against zero; the target is
	// PC-relative (imm counts instructions).
	BEQ
	BNE
	BLT
	BLE
	BGT
	BGE
	BR    // unconditional direct branch
	JMP   // indirect jump through ra
	CALL  // direct call: rd = return address, jump to target
	CALLR // indirect call: rd = return address, jump through ra
	RET   // return: jump through ra (consults the return address stack)

	// HALT stops the executing thread.
	HALT

	numOps
)

var opNames = [numOps]string{
	NOP: "nop",
	ADD: "add", SUB: "sub", MUL: "mul", DIV: "div",
	AND: "and", OR: "or", XOR: "xor",
	SLL: "sll", SRL: "srl", SRA: "sra",
	CMPEQ: "cmpeq", CMPLT: "cmplt", CMPLE: "cmple",
	CMPULT: "cmpult", CMPULE: "cmpule",
	S4ADD: "s4add", S8ADD: "s8add",
	ADDI: "addi", ANDI: "andi", ORI: "ori", XORI: "xori",
	SLLI: "slli", SRLI: "srli", SRAI: "srai",
	CMPEQI: "cmpeqi", CMPLTI: "cmplti", CMPLEI: "cmplei", CMPULTI: "cmpulti",
	LDI: "ldi", LDIH: "ldih",
	CMOVEQ: "cmoveq", CMOVNE: "cmovne", CMOVLT: "cmovlt",
	CMOVGE: "cmovge", CMOVGT: "cmovgt", CMOVLE: "cmovle",
	LD: "ld", LDW: "ldw", LDBU: "ldbu",
	ST: "st", STW: "stw", STB: "stb",
	BEQ: "beq", BNE: "bne", BLT: "blt", BLE: "ble", BGT: "bgt", BGE: "bge",
	BR: "br", JMP: "jmp", CALL: "call", CALLR: "callr", RET: "ret",
	HALT: "halt",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Opcode-level classification; the Inst methods below delegate to these.

// IsCondBranch reports whether the opcode is a conditional branch.
func (o Op) IsCondBranch() bool { return o >= BEQ && o <= BGE }

// IsCall reports whether the opcode pushes a return address.
func (o Op) IsCall() bool { return o == CALL || o == CALLR }

// IsRet reports whether the opcode pops the return address stack.
func (o Op) IsRet() bool { return o == RET }

// Inst is one decoded SSA-64 instruction. PCs advance by InstBytes per
// instruction; PC-relative branch immediates count instructions, not bytes.
type Inst struct {
	Op  Op
	Rd  Reg
	Ra  Reg
	Rb  Reg
	Imm int32
}

// InstBytes is the architectural size of one encoded instruction as seen by
// the program counter and the instruction cache.
const InstBytes = 4

// BranchTarget returns the absolute target of a PC-relative control
// instruction located at pc.
func (in *Inst) BranchTarget(pc uint64) uint64 {
	return pc + InstBytes + uint64(int64(in.Imm))*InstBytes
}

// IsCondBranch reports whether the instruction is a conditional branch.
func (in *Inst) IsCondBranch() bool { return in.Op.IsCondBranch() }

// IsDirectCtrl reports whether the instruction is direct control flow
// (conditional branch, BR, or CALL) whose target is known at decode — the
// perfect-BTB case in the paper's front end.
func (in *Inst) IsDirectCtrl() bool {
	return (in.Op >= BEQ && in.Op <= BR) || in.Op == CALL
}

// IsIndirectCtrl reports whether the instruction jumps through a register.
func (in *Inst) IsIndirectCtrl() bool {
	return in.Op == JMP || in.Op == CALLR || in.Op == RET
}

// IsCtrl reports whether the instruction changes control flow.
func (in *Inst) IsCtrl() bool { return in.Op >= BEQ && in.Op <= RET }

// IsCall reports whether the instruction pushes a return address.
func (in *Inst) IsCall() bool { return in.Op.IsCall() }

// IsRet reports whether the instruction pops the return address stack.
func (in *Inst) IsRet() bool { return in.Op.IsRet() }

// IsLoad reports whether the instruction reads memory.
func (in *Inst) IsLoad() bool { return in.Op >= LD && in.Op <= LDBU }

// IsStore reports whether the instruction writes memory.
func (in *Inst) IsStore() bool { return in.Op >= ST && in.Op <= STB }

// IsMem reports whether the instruction accesses memory.
func (in *Inst) IsMem() bool { return in.Op >= LD && in.Op <= STB }

// IsComplex reports whether the instruction needs the complex integer unit
// (multiply/divide) rather than a simple ALU.
func (in *Inst) IsComplex() bool { return in.Op == MUL || in.Op == DIV }

// MemBytes returns the access width of a memory instruction, or 0.
func (in *Inst) MemBytes() int {
	switch in.Op {
	case LD, ST:
		return 8
	case LDW, STW:
		return 4
	case LDBU, STB:
		return 1
	}
	return 0
}

// Dest returns the destination register and whether the instruction writes
// one. Writes to R0 are reported as no destination.
func (in *Inst) Dest() (Reg, bool) {
	var d Reg
	switch {
	case in.Op >= ADD && in.Op <= CMOVLE:
		d = in.Rd
	case in.IsLoad():
		d = in.Rd
	case in.IsCall():
		d = in.Rd
	default:
		return 0, false
	}
	if d == Zero {
		return 0, false
	}
	return d, true
}

// Sources returns the registers the instruction reads (up to 3: cmov reads
// its own destination, stores read their data register).
func (in *Inst) Sources() []Reg {
	var s [3]Reg
	return s[:in.SourcesInto(&s)]
}

// SourcesInto is Sources into a caller-provided buffer, so per-fetch
// dependence scanning does not force the register array onto the heap.
func (in *Inst) SourcesInto(s *[3]Reg) int {
	n := 0
	add := func(r Reg) {
		if r == Zero {
			return
		}
		for i := 0; i < n; i++ {
			if s[i] == r {
				return
			}
		}
		s[n] = r
		n++
	}
	switch {
	case in.Op >= ADD && in.Op <= S8ADD:
		add(in.Ra)
		add(in.Rb)
	case in.Op >= ADDI && in.Op <= LDIH:
		if in.Op != LDI {
			add(in.Ra)
		}
	case in.Op >= CMOVEQ && in.Op <= CMOVLE:
		add(in.Ra)
		add(in.Rb)
		add(in.Rd) // old value survives when the move does not fire
	case in.IsLoad():
		add(in.Ra)
	case in.IsStore():
		add(in.Ra)
		add(in.Rd) // store data travels in Rd
	case in.IsCondBranch():
		add(in.Ra)
	case in.IsIndirectCtrl():
		add(in.Ra)
	}
	return n
}

func (in *Inst) String() string { return in.Disasm(0) }
