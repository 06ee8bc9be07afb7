package isa

import "fmt"

// Disasm renders the instruction as assembly text. pc is used to resolve
// PC-relative targets; pass 0 to print raw immediates.
func (in *Inst) Disasm(pc uint64) string {
	op := in.Op.String()
	switch {
	case in.Op == NOP || in.Op == HALT:
		return op
	case in.Op >= ADD && in.Op <= S8ADD:
		return fmt.Sprintf("%s %s, %s, %s", op, in.Rd, in.Ra, in.Rb)
	case in.Op == LDI:
		return fmt.Sprintf("%s %s, %d", op, in.Rd, in.Imm)
	case in.Op >= ADDI && in.Op <= LDIH:
		return fmt.Sprintf("%s %s, %s, %d", op, in.Rd, in.Ra, in.Imm)
	case in.Op >= CMOVEQ && in.Op <= CMOVLE:
		return fmt.Sprintf("%s %s, %s, %s", op, in.Rd, in.Ra, in.Rb)
	case in.IsLoad():
		return fmt.Sprintf("%s %s, %d(%s)", op, in.Rd, in.Imm, in.Ra)
	case in.IsStore():
		return fmt.Sprintf("%s %s, %d(%s)", op, in.Rd, in.Imm, in.Ra)
	case in.IsCondBranch():
		if pc != 0 {
			return fmt.Sprintf("%s %s, %#x", op, in.Ra, in.BranchTarget(pc))
		}
		return fmt.Sprintf("%s %s, %+d", op, in.Ra, in.Imm)
	case in.Op == BR:
		if pc != 0 {
			return fmt.Sprintf("%s %#x", op, in.BranchTarget(pc))
		}
		return fmt.Sprintf("%s %+d", op, in.Imm)
	case in.Op == CALL:
		if pc != 0 {
			return fmt.Sprintf("%s %s, %#x", op, in.Rd, in.BranchTarget(pc))
		}
		return fmt.Sprintf("%s %s, %+d", op, in.Rd, in.Imm)
	case in.Op == JMP || in.Op == RET:
		return fmt.Sprintf("%s %s", op, in.Ra)
	case in.Op == CALLR:
		return fmt.Sprintf("%s %s, %s", op, in.Rd, in.Ra)
	}
	return fmt.Sprintf("%s rd=%s ra=%s rb=%s imm=%d", op, in.Rd, in.Ra, in.Rb, in.Imm)
}
