package isa

// State is the architectural state an instruction executes against. The CPU
// model implements it with speculative register files and undo-logged
// memory so that wrong-path execution can be rolled back.
type State interface {
	// Reg reads an architectural register. Reading Zero returns 0.
	Reg(r Reg) uint64
	// SetReg writes an architectural register. Writing Zero is a no-op.
	SetReg(r Reg, v uint64)
	// Load reads size bytes (1, 4, or 8) at addr, zero-extended. ok is
	// false when the access faults (null or unmapped page) — the value is
	// then 0. Faults terminate helper threads (how linked-list slices
	// self-terminate, §3.2) and are ignored on the main thread's wrong
	// path.
	Load(addr uint64, size int) (val uint64, ok bool)
	// Store writes size bytes at addr, returning false on fault.
	Store(addr uint64, size int, val uint64) (ok bool)
}

// Outcome describes everything the timing model needs to know about one
// functionally executed instruction.
type Outcome struct {
	// WroteReg/Rd/Value describe the register write, if any.
	WroteReg bool
	Rd       Reg
	Value    uint64

	// Control flow.
	IsCtrl bool
	Taken  bool   // direction of a conditional branch; true for jumps
	Target uint64 // taken target

	// Memory.
	IsMem    bool
	IsStore  bool
	Addr     uint64
	Size     int
	StoreVal uint64

	// Fault is set when a memory access touched the null page or an
	// unmapped page.
	Fault bool

	// Halt is set by HALT.
	Halt bool
}

// NextPC returns the address of the next instruction given this outcome.
func (o *Outcome) NextPC(pc uint64) uint64 {
	if o.IsCtrl && o.Taken {
		return o.Target
	}
	return pc + InstBytes
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Execute functionally executes in at pc against st and writes the outcome
// into the caller-owned *o, overwriting all of it. Writing in place rather
// than returning the 80-byte struct keeps the detailed core's
// execute-at-fetch path free of two struct copies per fetched instruction.
// Register and memory side effects are applied through st; the caller is
// responsible for undo logging inside its State implementation.
func Execute(in *Inst, pc uint64, st State, o *Outcome) {
	*o = Outcome{}
	setReg := func(v uint64) {
		if in.Rd != Zero {
			st.SetReg(in.Rd, v)
			o.WroteReg, o.Rd, o.Value = true, in.Rd, v
		}
	}
	a := st.Reg(in.Ra)
	b := st.Reg(in.Rb)
	imm := int64(in.Imm)

	switch in.Op {
	case NOP:
	case ADD:
		setReg(a + b)
	case SUB:
		setReg(a - b)
	case MUL:
		setReg(a * b)
	case DIV:
		if b == 0 {
			setReg(0)
		} else {
			setReg(uint64(int64(a) / int64(b)))
		}
	case AND:
		setReg(a & b)
	case OR:
		setReg(a | b)
	case XOR:
		setReg(a ^ b)
	case SLL:
		setReg(a << (b & 63))
	case SRL:
		setReg(a >> (b & 63))
	case SRA:
		setReg(uint64(int64(a) >> (b & 63)))
	case CMPEQ:
		setReg(b2u(a == b))
	case CMPLT:
		setReg(b2u(int64(a) < int64(b)))
	case CMPLE:
		setReg(b2u(int64(a) <= int64(b)))
	case CMPULT:
		setReg(b2u(a < b))
	case CMPULE:
		setReg(b2u(a <= b))
	case S4ADD:
		setReg(a*4 + b)
	case S8ADD:
		setReg(a*8 + b)

	case ADDI:
		setReg(a + uint64(imm))
	case ANDI:
		setReg(a & uint64(imm))
	case ORI:
		setReg(a | uint64(imm))
	case XORI:
		setReg(a ^ uint64(imm))
	case SLLI:
		setReg(a << (uint64(imm) & 63))
	case SRLI:
		setReg(a >> (uint64(imm) & 63))
	case SRAI:
		setReg(uint64(int64(a) >> (uint64(imm) & 63)))
	case CMPEQI:
		setReg(b2u(a == uint64(imm)))
	case CMPLTI:
		setReg(b2u(int64(a) < imm))
	case CMPLEI:
		setReg(b2u(int64(a) <= imm))
	case CMPULTI:
		setReg(b2u(a < uint64(imm)))
	case LDI:
		setReg(uint64(imm))
	case LDIH:
		setReg(a + uint64(imm)<<16)

	case CMOVEQ:
		if a == 0 {
			setReg(b)
		}
	case CMOVNE:
		if a != 0 {
			setReg(b)
		}
	case CMOVLT:
		if int64(a) < 0 {
			setReg(b)
		}
	case CMOVGE:
		if int64(a) >= 0 {
			setReg(b)
		}
	case CMOVGT:
		if int64(a) > 0 {
			setReg(b)
		}
	case CMOVLE:
		if int64(a) <= 0 {
			setReg(b)
		}

	case LD, LDW, LDBU:
		o.IsMem = true
		o.Addr = a + uint64(imm)
		o.Size = in.MemBytes()
		v, ok := st.Load(o.Addr, o.Size)
		if !ok {
			o.Fault = true
		}
		if in.Op == LDW {
			v = uint64(int64(int32(uint32(v))))
		}
		setReg(v)
	case ST, STW, STB:
		o.IsMem, o.IsStore = true, true
		o.Addr = a + uint64(imm)
		o.Size = in.MemBytes()
		o.StoreVal = st.Reg(in.Rd)
		if !st.Store(o.Addr, o.Size, o.StoreVal) {
			o.Fault = true
		}

	case BEQ, BNE, BLT, BLE, BGT, BGE:
		o.IsCtrl = true
		o.Target = in.BranchTarget(pc)
		switch in.Op {
		case BEQ:
			o.Taken = a == 0
		case BNE:
			o.Taken = a != 0
		case BLT:
			o.Taken = int64(a) < 0
		case BLE:
			o.Taken = int64(a) <= 0
		case BGT:
			o.Taken = int64(a) > 0
		case BGE:
			o.Taken = int64(a) >= 0
		}
	case BR:
		o.IsCtrl, o.Taken = true, true
		o.Target = in.BranchTarget(pc)
	case JMP, RET:
		o.IsCtrl, o.Taken = true, true
		o.Target = a
	case CALL:
		o.IsCtrl, o.Taken = true, true
		o.Target = in.BranchTarget(pc)
		setReg(pc + InstBytes)
	case CALLR:
		o.IsCtrl, o.Taken = true, true
		o.Target = a
		setReg(pc + InstBytes)

	case HALT:
		o.Halt = true
	}
}
