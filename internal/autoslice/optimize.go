package autoslice

// This file is the mechanical version of §3.2's hand optimizations, applied
// to the unrolled slice body the backward dataflow walk extracts:
//
//   - constant propagation with strength reduction (multiplies by powers of
//     two become shifts, scaled adds of a constant zero become shifts,
//     identities fold to register moves, fully known values fold to LDI);
//   - duplicate-instruction elimination across unrolled instances (value
//     numbering: an instruction recomputing a value its destination already
//     holds is dropped — the common shape left by unrolling a loop whose
//     invariant feeders were sliced once per iteration);
//   - dead-code elimination backward from the slice's roots (PGIs and
//     problem loads);
//   - loop re-rolling (the paper's "loop encapsulation"): when the tail of
//     the optimized body is the same block repeated, emit the block once
//     behind a back edge and bound it with MaxLoops.
//
// The optimizer works on a slot IR — one prospective slice instruction per
// slot, in trace order, PCs unassigned — because every pass renumbers the
// code, and PGI slice PCs can only be bound at final emission.

import (
	"fmt"
	"math/bits"

	"repro/internal/isa"
	"repro/internal/slicehw"
)

// slot is one prospective slice instruction in the optimizer's IR.
type slot struct {
	in isa.Inst
	// pgi marks a prediction-generating instruction. Its SlicePC is filled
	// in at emission, after the optimizer has moved things around.
	pgi *slicehw.PGI
	// problemLoad is the main-program PC of the problem load this slot
	// re-executes. Such slots are roots: their prefetch is a side effect
	// dead-code elimination must not remove.
	problemLoad uint64
}

// isRoot reports whether the slot must survive dead-code elimination for
// its side effect rather than its register result.
func (s *slot) isRoot() bool { return s.pgi != nil || s.problemLoad != 0 }

func movInst(rd, ra isa.Reg) isa.Inst { return isa.Inst{Op: isa.OR, Rd: rd, Ra: ra} }

// optimize runs the straight-line passes. Loop re-rolling runs separately
// (reroll), because it changes the program shape rather than the slot list.
func optimize(slots []slot) []slot {
	slots = constFold(slots)
	slots = dedup(slots)
	slots = deadCode(slots)
	return slots
}

// knownRegs is the isa.State constant folding evaluates over: a register
// reads its known value (an unknown one reads 0, so callers first check
// the sources they rely on), and writes are discarded — Execute reports
// the written value in its Outcome. Only register-only instructions run
// on it, so memory always faults.
type knownRegs func(isa.Reg) (uint64, bool)

func (k knownRegs) Reg(r isa.Reg) uint64          { v, _ := k(r); return v }
func (knownRegs) SetReg(isa.Reg, uint64)          {}
func (knownRegs) Load(uint64, int) (uint64, bool) { return 0, false }
func (knownRegs) Store(uint64, int, uint64) bool  { return false }

// execKnown executes in through isa.Execute over the known registers and
// returns the value it writes, if it writes one. It executes a copy whose
// destination is never Zero: Execute discards a write to Zero, but a fold
// needs the value either way.
func execKnown(in isa.Inst, known func(isa.Reg) (uint64, bool)) (uint64, bool) {
	in.Rd = isa.AT
	var o isa.Outcome
	isa.Execute(&in, 0, knownRegs(known), &o)
	return o.Value, o.WroteReg
}

// constValue computes the instruction's result when all of its source
// values are known. Loads and conditional moves never fold here.
func constValue(in *isa.Inst, known func(isa.Reg) (uint64, bool)) (uint64, bool) {
	if in.IsMem() || in.IsCtrl() || (in.Op >= isa.CMOVEQ && in.Op <= isa.CMOVLE) {
		return 0, false
	}
	_, aok := known(in.Ra)
	_, bok := known(in.Rb)
	if !aok || !bok {
		return 0, false
	}
	return execKnown(*in, known)
}

// simplify rewrites one instruction given the known constants: strength
// reduction and identity folding. The rewrite always preserves the computed
// value (the register result drives PGI directions downstream).
func simplify(in isa.Inst, known func(isa.Reg) (uint64, bool)) isa.Inst {
	a, aok := known(in.Ra)
	b, bok := known(in.Rb)
	switch in.Op {
	case isa.MUL:
		if aok && !bok {
			in.Ra, in.Rb = in.Rb, in.Ra
			a, aok, b, bok = b, bok, a, aok
		}
		_ = a
		if bok {
			switch {
			case b == 0:
				return isa.Inst{Op: isa.LDI, Rd: in.Rd}
			case b == 1:
				return movInst(in.Rd, in.Ra)
			case b&(b-1) == 0:
				return isa.Inst{Op: isa.SLLI, Rd: in.Rd, Ra: in.Ra, Imm: int32(bits.TrailingZeros64(b))}
			}
		}
	case isa.ADD, isa.OR, isa.XOR:
		if aok && a == 0 {
			return movInst(in.Rd, in.Rb)
		}
		if bok && b == 0 {
			return movInst(in.Rd, in.Ra)
		}
	case isa.SUB:
		if bok && b == 0 {
			return movInst(in.Rd, in.Ra)
		}
	case isa.AND:
		if (aok && a == 0) || (bok && b == 0) {
			return isa.Inst{Op: isa.LDI, Rd: in.Rd}
		}
	case isa.S4ADD:
		if bok && b == 0 {
			return isa.Inst{Op: isa.SLLI, Rd: in.Rd, Ra: in.Ra, Imm: 2}
		}
	case isa.S8ADD:
		if bok && b == 0 {
			return isa.Inst{Op: isa.SLLI, Rd: in.Rd, Ra: in.Ra, Imm: 3}
		}
	case isa.ADDI, isa.ORI, isa.XORI, isa.SLLI, isa.SRLI, isa.SRAI:
		if in.Imm == 0 {
			return movInst(in.Rd, in.Ra)
		}
	}
	// Whole-instruction fold when every input is known and the value fits
	// LDI's sign-extended immediate.
	if v, ok := constValue(&in, known); ok && in.Op != isa.LDI {
		if uint64(int64(int32(v))) == v {
			return isa.Inst{Op: isa.LDI, Rd: in.Rd, Imm: int32(v)}
		}
	}
	return in
}

// constFold runs constant propagation + strength reduction over the slot
// list. PGI slots keep their shape (their emitted PC is the prediction's
// identity, and their value chain must stay trivially auditable); problem
// loads keep their shape (the load is the point).
func constFold(slots []slot) []slot {
	consts := make(map[isa.Reg]uint64)
	known := func(r isa.Reg) (uint64, bool) {
		if r == isa.Zero {
			return 0, true
		}
		v, ok := consts[r]
		return v, ok
	}
	out := slots[:0:0]
	for _, s := range slots {
		in := s.in
		if in.Op >= isa.CMOVEQ && in.Op <= isa.CMOVLE {
			// A known guard resolves the conditional move statically.
			if _, ok := known(in.Ra); ok {
				if _, moves := execKnown(in, known); !moves {
					continue // rd keeps its old value: a no-op
				}
				in = movInst(in.Rd, in.Rb)
			}
		} else if !s.isRoot() && !in.IsLoad() {
			in = simplify(in, known)
		}
		if d, ok := in.Dest(); ok {
			if v, ok2 := constValue(&in, known); ok2 {
				consts[d] = v
			} else {
				delete(consts, d)
			}
		}
		s.in = in
		out = append(out, s)
	}
	return out
}

// dedup eliminates duplicate instructions across unrolled instances by
// value numbering: a slot whose destination already holds the value the
// slot would recompute is dropped. With no stores in a slice, loads of the
// same address value-number safely. PGI slots are never dropped — each one
// is one prediction.
func dedup(slots []slot) []slot {
	nextVN := 0
	regVN := make(map[isa.Reg]int)
	vnOf := func(r isa.Reg) int {
		if r == isa.Zero {
			return 0
		}
		if v, ok := regVN[r]; ok {
			return v
		}
		nextVN++
		regVN[r] = nextVN // first read: the live-in value
		return nextVN
	}
	exprVN := make(map[string]int)
	out := slots[:0:0]
	for _, s := range slots {
		d, hasDest := s.in.Dest()
		if !hasDest {
			out = append(out, s)
			continue
		}
		var srcs [3]isa.Reg
		n := s.in.SourcesInto(&srcs)
		key := fmt.Sprintf("%d|%d", s.in.Op, s.in.Imm)
		for i := 0; i < n; i++ {
			key = fmt.Sprintf("%s|%d", key, vnOf(srcs[i]))
		}
		v, seen := exprVN[key]
		if seen && s.pgi == nil && regVN[d] == v {
			continue // recomputes what d already holds
		}
		if !seen {
			nextVN++
			v = nextVN
			exprVN[key] = v
		}
		regVN[d] = v
		out = append(out, s)
	}
	return out
}

// deadCode removes slots whose register result is never consumed, walking
// backward from the roots (PGIs and problem loads). A conditional move's
// destination is also a source (the old value survives a non-firing move),
// so SourcesInto keeps the chain alive across if-converted hammocks.
func deadCode(slots []slot) []slot {
	live := make(map[isa.Reg]bool)
	keep := make([]bool, len(slots))
	for i := len(slots) - 1; i >= 0; i-- {
		s := &slots[i]
		d, hasDest := s.in.Dest()
		if !s.isRoot() && (!hasDest || !live[d]) {
			continue
		}
		keep[i] = true
		if hasDest {
			delete(live, d)
		}
		var srcs [3]isa.Reg
		n := s.in.SourcesInto(&srcs)
		for k := 0; k < n; k++ {
			live[srcs[k]] = true
		}
	}
	out := slots[:0:0]
	for i, s := range slots {
		if keep[i] {
			out = append(out, s)
		}
	}
	return out
}

func slotEq(a, b *slot) bool {
	if a.in != b.in || a.problemLoad != b.problemLoad {
		return false
	}
	if (a.pgi == nil) != (b.pgi == nil) {
		return false
	}
	if a.pgi != nil &&
		(a.pgi.BranchPC != b.pgi.BranchPC || a.pgi.TakenIfZero != b.pgi.TakenIfZero) {
		return false
	}
	return true
}

func blockEq(a, b []slot) bool {
	for i := range a {
		if !slotEq(&a[i], &b[i]) {
			return false
		}
	}
	return true
}

// reroll detects a repeating tail — the unrolled instances of one loop
// iteration — and reports the split into prologue, one loop body, and the
// repetition count (the paper's loop encapsulation). Identical instruction
// blocks are equivalent by construction: register dataflow is positional,
// so executing the block k times reproduces the unrolled sequence exactly.
// reps == 0 means no profitable loop was found (re-rolling spends one BR,
// so tiny repetitions stay unrolled).
func reroll(slots []slot) (pro, body []slot, reps int) {
	n := len(slots)
	bestSaved := 0
	for L := 1; L <= n/2; L++ {
		k := 1
		for (k+1)*L <= n && blockEq(slots[n-(k+1)*L:n-k*L], slots[n-L:]) {
			k++
		}
		if k < 2 {
			continue
		}
		if saved := (k-1)*L - 1; saved >= 2 && saved > bestSaved {
			bestSaved = saved
			pro, body, reps = slots[:n-k*L], slots[n-k*L:n-(k-1)*L], k
		}
	}
	if reps == 0 {
		return slots, nil, 0
	}
	return pro, body, reps
}
