package compiled

import (
	"repro/internal/isa"
	"repro/internal/mem"
)

// Machine executes a compiled Program against a Memory. It holds the
// register file (with the extra dump slot for Zero writes), a page-pointer
// cache over the memory, and the current PC.
//
// Two execution interfaces:
//
//   - Run executes up to maxInsts instructions flat out: fused superops,
//     no Outcome materialization, memory through the Pager fast path. It
//     matches cpu.RunFunctional's architectural semantics exactly (main
//     thread: faulting loads read zero, faulting stores are dropped,
//     execution continues).
//   - Step executes exactly one architectural instruction and fills a
//     complete isa.Outcome, bit-identical to isa.Execute against the same
//     state. The oracle's lockstep diff and the warm loop's per-
//     instruction cache touching run on Step.
//
// A Machine is single-threaded; create one per concurrent run.
type Machine struct {
	// Regs is the register file. Slot 0 is the architectural Zero register
	// and is never written (compiled writes to Zero land in slot dump);
	// slot dump (NumRegs) is write-only garbage.
	Regs [isa.NumRegs + 1]uint64

	prog   *Program
	pg     mem.Pager
	pc     uint64
	halted bool
	r      *region // region containing pc, lazily looked up
}

// NewMachine returns a Machine executing p against m, starting at pc.
func NewMachine(p *Program, m *mem.Memory, pc uint64) *Machine {
	ma := &Machine{prog: p, pc: pc}
	ma.pg.Init(m)
	return ma
}

// PC returns the current program counter. After a Halt it remains at the
// HALT instruction (matching RunFunctional and FunctionalWarm).
func (ma *Machine) PC() uint64 { return ma.pc }

// SetPC redirects execution and clears the halted flag.
func (ma *Machine) SetPC(pc uint64) {
	ma.pc = pc
	ma.halted = false
}

// Halted reports whether a HALT has retired.
func (ma *Machine) Halted() bool { return ma.halted }

// Mem returns the underlying memory.
func (ma *Machine) Mem() *mem.Memory { return ma.pg.Mem() }

// Reg reads an architectural register; Zero reads 0.
func (ma *Machine) Reg(r isa.Reg) uint64 { return ma.Regs[r] }

// SetReg writes an architectural register; writing Zero is a no-op.
func (ma *Machine) SetReg(r isa.Reg, v uint64) {
	if r != isa.Zero {
		ma.Regs[r] = v
	}
}

// SetRegs loads the architectural register file.
func (ma *Machine) SetRegs(regs *[isa.NumRegs]uint64) {
	copy(ma.Regs[:isa.NumRegs], regs[:])
	ma.Regs[isa.Zero] = 0 // preserve the never-written invariant
}

// CopyRegs copies the architectural register file out.
func (ma *Machine) CopyRegs(regs *[isa.NumRegs]uint64) {
	copy(regs[:], ma.Regs[:isa.NumRegs])
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// cmpRR evaluates a register-register compare.
func cmpRR(op isa.Op, a, b uint64) uint64 {
	switch op {
	case isa.CMPEQ:
		return b2u(a == b)
	case isa.CMPLT:
		return b2u(int64(a) < int64(b))
	case isa.CMPLE:
		return b2u(int64(a) <= int64(b))
	case isa.CMPULT:
		return b2u(a < b)
	default: // CMPULE
		return b2u(a <= b)
	}
}

// cmpRI evaluates a register-immediate compare.
func cmpRI(op isa.Op, a uint64, imm int64) uint64 {
	switch op {
	case isa.CMPEQI:
		return b2u(a == uint64(imm))
	case isa.CMPLTI:
		return b2u(int64(a) < imm)
	case isa.CMPLEI:
		return b2u(int64(a) <= imm)
	default: // CMPULTI
		return b2u(a < uint64(imm))
	}
}

// Run executes up to maxInsts architectural instructions starting at the
// current PC and returns how many retired. It stops early on HALT (the
// machine stays halted, PC at the HALT) and returns an *OffImageError if
// control leaves the compiled image. A fused pair that would overshoot
// maxInsts executes only its first constituent, so retired counts are
// exact.
func (ma *Machine) Run(maxInsts uint64) (uint64, error) {
	if ma.halted {
		return 0, nil
	}
	regs := &ma.Regs
	pg := &ma.pg
	pc := ma.pc
	r := ma.r
	var retired uint64

outer:
	for retired < maxInsts {
		if r == nil || pc < r.base || pc >= r.end || (pc-r.base)%isa.InstBytes != 0 {
			r = ma.prog.regionFor(pc)
			if r == nil {
				ma.r = nil
				ma.pc = pc
				return retired, &OffImageError{PC: pc}
			}
		}
		ops := r.ops
		n := int32(len(ops))
		i := int32((pc - r.base) / isa.InstBytes)

	inner:
		for retired < maxInsts {
			o := &ops[i]
			switch o.kind {
			case isa.NOP, isa.FORK:
				// FORK is architecturally a no-op; fork side effects belong
				// to the timing model.

			case isa.ADD:
				regs[o.wr] = regs[o.ra] + regs[o.rb]
			case isa.SUB:
				regs[o.wr] = regs[o.ra] - regs[o.rb]
			case isa.MUL:
				regs[o.wr] = regs[o.ra] * regs[o.rb]
			case isa.DIV:
				if b := regs[o.rb]; b == 0 {
					regs[o.wr] = 0
				} else {
					regs[o.wr] = uint64(int64(regs[o.ra]) / int64(b))
				}
			case isa.AND:
				regs[o.wr] = regs[o.ra] & regs[o.rb]
			case isa.OR:
				regs[o.wr] = regs[o.ra] | regs[o.rb]
			case isa.XOR:
				regs[o.wr] = regs[o.ra] ^ regs[o.rb]
			case isa.SLL:
				regs[o.wr] = regs[o.ra] << (regs[o.rb] & 63)
			case isa.SRL:
				regs[o.wr] = regs[o.ra] >> (regs[o.rb] & 63)
			case isa.SRA:
				regs[o.wr] = uint64(int64(regs[o.ra]) >> (regs[o.rb] & 63))
			case isa.CMPEQ, isa.CMPLT, isa.CMPLE, isa.CMPULT, isa.CMPULE:
				regs[o.wr] = cmpRR(o.kind, regs[o.ra], regs[o.rb])
			case isa.S4ADD:
				regs[o.wr] = regs[o.ra]*4 + regs[o.rb]
			case isa.S8ADD:
				regs[o.wr] = regs[o.ra]*8 + regs[o.rb]

			case isa.ADDI:
				regs[o.wr] = regs[o.ra] + uint64(o.imm)
			case isa.ANDI:
				regs[o.wr] = regs[o.ra] & uint64(o.imm)
			case isa.ORI:
				regs[o.wr] = regs[o.ra] | uint64(o.imm)
			case isa.XORI:
				regs[o.wr] = regs[o.ra] ^ uint64(o.imm)
			case isa.SLLI:
				regs[o.wr] = regs[o.ra] << uint64(o.imm) // imm pre-masked
			case isa.SRLI:
				regs[o.wr] = regs[o.ra] >> uint64(o.imm)
			case isa.SRAI:
				regs[o.wr] = uint64(int64(regs[o.ra]) >> uint64(o.imm))
			case isa.CMPEQI, isa.CMPLTI, isa.CMPLEI, isa.CMPULTI:
				regs[o.wr] = cmpRI(o.kind, regs[o.ra], o.imm)
			case isa.LDI:
				regs[o.wr] = uint64(o.imm)
			case isa.LDIH:
				regs[o.wr] = regs[o.ra] + uint64(o.imm) // imm pre-shifted

			case isa.CMOVEQ:
				if regs[o.ra] == 0 {
					regs[o.wr] = regs[o.rb]
				}
			case isa.CMOVNE:
				if regs[o.ra] != 0 {
					regs[o.wr] = regs[o.rb]
				}
			case isa.CMOVLT:
				if int64(regs[o.ra]) < 0 {
					regs[o.wr] = regs[o.rb]
				}
			case isa.CMOVGE:
				if int64(regs[o.ra]) >= 0 {
					regs[o.wr] = regs[o.rb]
				}
			case isa.CMOVGT:
				if int64(regs[o.ra]) > 0 {
					regs[o.wr] = regs[o.rb]
				}
			case isa.CMOVLE:
				if int64(regs[o.ra]) <= 0 {
					regs[o.wr] = regs[o.rb]
				}

			case isa.LD:
				// Faulting loads read zero and keep going: main-thread
				// functional semantics (helper-thread kill-on-fault lives in
				// the CPU model, not here). The Try probe inlines the
				// page-cache hit; the full accessor only runs on a miss.
				addr := regs[o.ra] + uint64(o.imm)
				v, hit := pg.TryLoad64(addr)
				if !hit {
					v, _ = pg.Load64(addr)
				}
				regs[o.wr] = v
			case isa.LDW:
				addr := regs[o.ra] + uint64(o.imm)
				v, hit := pg.TryLoad32(addr)
				if !hit {
					v, _ = pg.Load32(addr)
				}
				regs[o.wr] = uint64(int64(int32(uint32(v))))
			case isa.LDBU:
				addr := regs[o.ra] + uint64(o.imm)
				v, hit := pg.TryLoad8(addr)
				if !hit {
					v, _ = pg.Load8(addr)
				}
				regs[o.wr] = v
			case isa.ST:
				addr := regs[o.ra] + uint64(o.imm)
				if !pg.TryStore64(addr, regs[o.rd]) {
					pg.Store64(addr, regs[o.rd])
				}
			case isa.STW:
				addr := regs[o.ra] + uint64(o.imm)
				if !pg.TryStore32(addr, uint32(regs[o.rd])) {
					pg.Store32(addr, uint32(regs[o.rd]))
				}
			case isa.STB:
				addr := regs[o.ra] + uint64(o.imm)
				if !pg.TryStore8(addr, byte(regs[o.rd])) {
					pg.Store8(addr, byte(regs[o.rd]))
				}

			case isa.BEQ:
				retired++
				if regs[o.ra] == 0 {
					if o.tgt >= 0 {
						i = o.tgt
						continue inner
					}
					pc = o.tpc
					continue outer
				}
				i++
				if i == n {
					pc = r.end
					continue outer
				}
				continue inner
			case isa.BNE:
				retired++
				if regs[o.ra] != 0 {
					if o.tgt >= 0 {
						i = o.tgt
						continue inner
					}
					pc = o.tpc
					continue outer
				}
				i++
				if i == n {
					pc = r.end
					continue outer
				}
				continue inner
			case isa.BLT:
				retired++
				if int64(regs[o.ra]) < 0 {
					if o.tgt >= 0 {
						i = o.tgt
						continue inner
					}
					pc = o.tpc
					continue outer
				}
				i++
				if i == n {
					pc = r.end
					continue outer
				}
				continue inner
			case isa.BLE:
				retired++
				if int64(regs[o.ra]) <= 0 {
					if o.tgt >= 0 {
						i = o.tgt
						continue inner
					}
					pc = o.tpc
					continue outer
				}
				i++
				if i == n {
					pc = r.end
					continue outer
				}
				continue inner
			case isa.BGT:
				retired++
				if int64(regs[o.ra]) > 0 {
					if o.tgt >= 0 {
						i = o.tgt
						continue inner
					}
					pc = o.tpc
					continue outer
				}
				i++
				if i == n {
					pc = r.end
					continue outer
				}
				continue inner
			case isa.BGE:
				retired++
				if int64(regs[o.ra]) >= 0 {
					if o.tgt >= 0 {
						i = o.tgt
						continue inner
					}
					pc = o.tpc
					continue outer
				}
				i++
				if i == n {
					pc = r.end
					continue outer
				}
				continue inner
			case isa.BR:
				retired++
				if o.tgt >= 0 {
					i = o.tgt
					continue inner
				}
				pc = o.tpc
				continue outer
			case isa.JMP, isa.RET:
				retired++
				pc = regs[o.ra]
				continue outer
			case isa.CALL:
				regs[o.wr] = o.pc + isa.InstBytes
				retired++
				if o.tgt >= 0 {
					i = o.tgt
					continue inner
				}
				pc = o.tpc
				continue outer
			case isa.CALLR:
				t := regs[o.ra] // read before the link write: ra may alias rd
				regs[o.wr] = o.pc + isa.InstBytes
				retired++
				pc = t
				continue outer

			case isa.HALT:
				retired++
				ma.halted = true
				ma.pc = o.pc
				ma.r = r
				return retired, nil

			case kFCmpBr:
				v := cmpRR(o.plain, regs[o.ra], regs[o.rb])
				regs[o.wr] = v
				if retired+2 > maxInsts {
					break // retire only the compare (shared tail below)
				}
				retired += 2
				if (v != 0) != o.neg {
					if o.tgt >= 0 {
						i = o.tgt
						continue inner
					}
					pc = o.tpc
					continue outer
				}
				i += 2
				if i == n {
					pc = r.end
					continue outer
				}
				continue inner
			case kFCmpiBr:
				v := cmpRI(o.plain, regs[o.ra], o.imm)
				regs[o.wr] = v
				if retired+2 > maxInsts {
					break
				}
				retired += 2
				if (v != 0) != o.neg {
					if o.tgt >= 0 {
						i = o.tgt
						continue inner
					}
					pc = o.tpc
					continue outer
				}
				i += 2
				if i == n {
					pc = r.end
					continue outer
				}
				continue inner
			case kFSAddLd:
				var t uint64
				if o.plain == isa.S4ADD {
					t = regs[o.ra]*4 + regs[o.rb]
				} else {
					t = regs[o.ra]*8 + regs[o.rb]
				}
				regs[o.wr] = t
				if retired+2 > maxInsts {
					break
				}
				addr := t + uint64(o.imm2)
				switch o.k2 {
				case isa.LD:
					v, hit := pg.TryLoad64(addr)
					if !hit {
						v, _ = pg.Load64(addr)
					}
					regs[o.wr2] = v
				case isa.LDW:
					v, hit := pg.TryLoad32(addr)
					if !hit {
						v, _ = pg.Load32(addr)
					}
					regs[o.wr2] = uint64(int64(int32(uint32(v))))
				default: // LDBU
					v, hit := pg.TryLoad8(addr)
					if !hit {
						v, _ = pg.Load8(addr)
					}
					regs[o.wr2] = v
				}
				retired += 2
				i += 2
				if i == n {
					pc = r.end
					continue outer
				}
				continue inner
			case kFLdiAdd:
				regs[o.wr] = uint64(o.imm)
				if retired+2 > maxInsts {
					break
				}
				regs[o.wr2] = uint64(o.imm2) // imm2 = ldi.imm + addi.imm
				retired += 2
				i += 2
				if i == n {
					pc = r.end
					continue outer
				}
				continue inner
			}

			// Shared sequential tail: one instruction retired, fall through
			// to the next slot. (A fused op lands here only on the maxInsts
			// boundary, after executing just its first constituent — and a
			// fused op always has a successor slot, so i < n holds.)
			retired++
			i++
			if i == n {
				pc = r.end
				continue outer
			}
		}
		pc = r.base + uint64(i)*isa.InstBytes
	}
	ma.pc = pc
	ma.r = r
	return retired, nil
}

// Step executes exactly one architectural instruction, filling out with
// the same Outcome isa.Execute would produce, and returns the opcode (for
// caller-side classification). On HALT the PC stays at the HALT
// instruction; otherwise it advances to the outcome's next PC.
func (ma *Machine) Step(out *isa.Outcome) (isa.Op, error) {
	*out = isa.Outcome{}
	pc := ma.pc
	r := ma.r
	if r == nil || pc < r.base || pc >= r.end || (pc-r.base)%isa.InstBytes != 0 {
		r = ma.prog.regionFor(pc)
		if r == nil {
			return isa.NOP, &OffImageError{PC: pc}
		}
		ma.r = r
	}
	o := &r.ops[(pc-r.base)/isa.InstBytes]
	regs := &ma.Regs
	pg := &ma.pg

	// setReg mirrors isa.Execute's: the register write plus the Outcome
	// record, suppressed for the Zero destination.
	setReg := func(v uint64) {
		regs[o.wr] = v
		if o.wr != dump {
			out.WroteReg, out.Rd, out.Value = true, isa.Reg(o.rd), v
		}
	}

	switch op := o.plain; op {
	case isa.NOP:
	case isa.ADD:
		setReg(regs[o.ra] + regs[o.rb])
	case isa.SUB:
		setReg(regs[o.ra] - regs[o.rb])
	case isa.MUL:
		setReg(regs[o.ra] * regs[o.rb])
	case isa.DIV:
		if b := regs[o.rb]; b == 0 {
			setReg(0)
		} else {
			setReg(uint64(int64(regs[o.ra]) / int64(b)))
		}
	case isa.AND:
		setReg(regs[o.ra] & regs[o.rb])
	case isa.OR:
		setReg(regs[o.ra] | regs[o.rb])
	case isa.XOR:
		setReg(regs[o.ra] ^ regs[o.rb])
	case isa.SLL:
		setReg(regs[o.ra] << (regs[o.rb] & 63))
	case isa.SRL:
		setReg(regs[o.ra] >> (regs[o.rb] & 63))
	case isa.SRA:
		setReg(uint64(int64(regs[o.ra]) >> (regs[o.rb] & 63)))
	case isa.CMPEQ, isa.CMPLT, isa.CMPLE, isa.CMPULT, isa.CMPULE:
		setReg(cmpRR(op, regs[o.ra], regs[o.rb]))
	case isa.S4ADD:
		setReg(regs[o.ra]*4 + regs[o.rb])
	case isa.S8ADD:
		setReg(regs[o.ra]*8 + regs[o.rb])

	case isa.ADDI:
		setReg(regs[o.ra] + uint64(o.imm))
	case isa.ANDI:
		setReg(regs[o.ra] & uint64(o.imm))
	case isa.ORI:
		setReg(regs[o.ra] | uint64(o.imm))
	case isa.XORI:
		setReg(regs[o.ra] ^ uint64(o.imm))
	case isa.SLLI:
		setReg(regs[o.ra] << uint64(o.imm))
	case isa.SRLI:
		setReg(regs[o.ra] >> uint64(o.imm))
	case isa.SRAI:
		setReg(uint64(int64(regs[o.ra]) >> uint64(o.imm)))
	case isa.CMPEQI, isa.CMPLTI, isa.CMPLEI, isa.CMPULTI:
		setReg(cmpRI(op, regs[o.ra], o.imm))
	case isa.LDI:
		setReg(uint64(o.imm))
	case isa.LDIH:
		setReg(regs[o.ra] + uint64(o.imm))

	case isa.CMOVEQ:
		if regs[o.ra] == 0 {
			setReg(regs[o.rb])
		}
	case isa.CMOVNE:
		if regs[o.ra] != 0 {
			setReg(regs[o.rb])
		}
	case isa.CMOVLT:
		if int64(regs[o.ra]) < 0 {
			setReg(regs[o.rb])
		}
	case isa.CMOVGE:
		if int64(regs[o.ra]) >= 0 {
			setReg(regs[o.rb])
		}
	case isa.CMOVGT:
		if int64(regs[o.ra]) > 0 {
			setReg(regs[o.rb])
		}
	case isa.CMOVLE:
		if int64(regs[o.ra]) <= 0 {
			setReg(regs[o.rb])
		}

	case isa.LD, isa.LDW, isa.LDBU:
		out.IsMem = true
		out.Addr = regs[o.ra] + uint64(o.imm)
		out.Size = int(o.sz)
		var v uint64
		var ok bool
		switch op {
		case isa.LD:
			v, ok = pg.Load64(out.Addr)
		case isa.LDW:
			v, ok = pg.Load32(out.Addr)
			v = uint64(int64(int32(uint32(v))))
		default:
			v, ok = pg.Load8(out.Addr)
		}
		if !ok {
			out.Fault = true
		}
		setReg(v)
	case isa.ST, isa.STW, isa.STB:
		out.IsMem, out.IsStore = true, true
		out.Addr = regs[o.ra] + uint64(o.imm)
		out.Size = int(o.sz)
		out.StoreVal = regs[o.rd]
		var ok bool
		switch op {
		case isa.ST:
			ok = pg.Store64(out.Addr, out.StoreVal)
		case isa.STW:
			ok = pg.Store32(out.Addr, uint32(out.StoreVal))
		default:
			ok = pg.Store8(out.Addr, byte(out.StoreVal))
		}
		if !ok {
			out.Fault = true
		}

	case isa.BEQ, isa.BNE, isa.BLT, isa.BLE, isa.BGT, isa.BGE:
		out.IsCtrl = true
		// A fused slot's tgt/tpc belong to its second constituent; a branch
		// is only ever the *first* constituent of no fusion, so when plain
		// is a branch this slot is unfused and tpc is the branch's own.
		out.Target = o.tpc
		a := regs[o.ra]
		switch op {
		case isa.BEQ:
			out.Taken = a == 0
		case isa.BNE:
			out.Taken = a != 0
		case isa.BLT:
			out.Taken = int64(a) < 0
		case isa.BLE:
			out.Taken = int64(a) <= 0
		case isa.BGT:
			out.Taken = int64(a) > 0
		case isa.BGE:
			out.Taken = int64(a) >= 0
		}
	case isa.BR:
		out.IsCtrl, out.Taken = true, true
		out.Target = o.tpc
	case isa.JMP, isa.RET:
		out.IsCtrl, out.Taken = true, true
		out.Target = regs[o.ra]
	case isa.CALL:
		out.IsCtrl, out.Taken = true, true
		out.Target = o.tpc
		setReg(pc + isa.InstBytes)
	case isa.CALLR:
		out.IsCtrl, out.Taken = true, true
		out.Target = regs[o.ra] // read before the link write
		setReg(pc + isa.InstBytes)

	case isa.FORK:
		out.Fork = true
		out.SliceIndex = int(int32(o.imm))
	case isa.HALT:
		out.Halt = true
		ma.halted = true
		return op, nil
	}
	ma.pc = out.NextPC(pc)
	return o.plain, nil
}
