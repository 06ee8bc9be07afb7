// Package asm provides a small in-process assembler used to author the
// synthetic workloads and their speculative slices. A Builder accumulates
// instructions and labels; Build resolves PC-relative fixups and produces an
// immutable Program. Multiple Programs (e.g. the main binary and the slice
// code region, which the paper stores "as normal instructions in the
// instruction cache") combine into an Image the simulator fetches from.
package asm

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/isa"
)

// Program is an assembled, immutable code region.
type Program struct {
	// Base is the address of the first instruction.
	Base uint64
	// Insts are the instructions, PC-ordered, isa.InstBytes apart.
	Insts []isa.Inst
	// Labels maps label names to absolute addresses.
	Labels map[string]uint64

	labelAt map[uint64]string
}

// At returns the instruction at pc, or nil, false if pc is outside the
// program.
func (p *Program) At(pc uint64) (*isa.Inst, bool) {
	if pc < p.Base || (pc-p.Base)%isa.InstBytes != 0 {
		return nil, false
	}
	i := (pc - p.Base) / isa.InstBytes
	if i >= uint64(len(p.Insts)) {
		return nil, false
	}
	return &p.Insts[i], true
}

// End returns the address one past the last instruction.
func (p *Program) End() uint64 {
	return p.Base + uint64(len(p.Insts))*isa.InstBytes
}

// PC returns the address of label, panicking if undefined (programs are
// authored in-process; an undefined label is a programming error).
func (p *Program) PC(label string) uint64 {
	pc, ok := p.Labels[label]
	if !ok {
		panic(fmt.Sprintf("asm: undefined label %q", label))
	}
	return pc
}

// LabelAt returns the label defined at pc, if any.
func (p *Program) LabelAt(pc uint64) (string, bool) {
	l, ok := p.labelAt[pc]
	return l, ok
}

// Disasm renders the whole program with addresses and labels.
func (p *Program) Disasm() string {
	var sb strings.Builder
	for i := range p.Insts {
		pc := p.Base + uint64(i)*isa.InstBytes
		if l, ok := p.labelAt[pc]; ok {
			fmt.Fprintf(&sb, "%s:\n", l)
		}
		fmt.Fprintf(&sb, "  %#08x  %s\n", pc, p.Insts[i].Disasm(pc))
	}
	return sb.String()
}

// Image is the union of the code regions visible to instruction fetch.
type Image struct {
	progs []*Program
}

// NewImage builds an Image; programs must not overlap.
func NewImage(progs ...*Program) (*Image, error) {
	im := &Image{}
	for _, p := range progs {
		if err := im.Add(p); err != nil {
			return nil, err
		}
	}
	return im, nil
}

// Add registers another program region.
func (im *Image) Add(p *Program) error {
	for _, q := range im.progs {
		if p.Base < q.End() && q.Base < p.End() {
			return fmt.Errorf("asm: program at %#x overlaps program at %#x", p.Base, q.Base)
		}
	}
	im.progs = append(im.progs, p)
	sort.Slice(im.progs, func(i, j int) bool { return im.progs[i].Base < im.progs[j].Base })
	return nil
}

// At returns the instruction at pc across all regions.
func (im *Image) At(pc uint64) (*isa.Inst, bool) {
	// Few regions (2-3); linear scan is fine and branch-predictable.
	for _, p := range im.progs {
		if pc >= p.Base && pc < p.End() {
			return p.At(pc)
		}
	}
	return nil, false
}

// Programs returns the regions in address order.
func (im *Image) Programs() []*Program { return im.progs }

// LabelAt resolves a label across all regions.
func (im *Image) LabelAt(pc uint64) (string, bool) {
	for _, p := range im.progs {
		if l, ok := p.LabelAt(pc); ok {
			return l, ok
		}
	}
	return "", false
}

type fixup struct {
	index int    // instruction index needing a target
	label string // target label
}

// Builder accumulates instructions. All emit methods return the Builder for
// chaining where that reads well; most workload code calls them as
// statements.
type Builder struct {
	base   uint64
	insts  []isa.Inst
	labels map[string]int
	fixups []fixup
	errs   []error
}

// NewBuilder starts a program at base (must be InstBytes-aligned and
// non-zero).
func NewBuilder(base uint64) *Builder {
	b := &Builder{base: base, labels: make(map[string]int)}
	if base == 0 || base%isa.InstBytes != 0 {
		b.errs = append(b.errs, fmt.Errorf("asm: bad base %#x", base))
	}
	return b
}

// PC returns the address of the next instruction to be emitted.
func (b *Builder) PC() uint64 { return b.base + uint64(len(b.insts))*isa.InstBytes }

// Label defines a label at the current PC.
func (b *Builder) Label(name string) {
	if _, dup := b.labels[name]; dup {
		b.errs = append(b.errs, fmt.Errorf("asm: duplicate label %q", name))
		return
	}
	b.labels[name] = len(b.insts)
}

// Raw emits a pre-formed instruction.
func (b *Builder) Raw(in isa.Inst) { b.insts = append(b.insts, in) }

// R emits a reg-reg operation (ADD..S8ADD, CMOV*).
func (b *Builder) R(op isa.Op, rd, ra, rb isa.Reg) {
	b.Raw(isa.Inst{Op: op, Rd: rd, Ra: ra, Rb: rb})
}

// I emits a reg-imm operation (ADDI..LDIH).
func (b *Builder) I(op isa.Op, rd, ra isa.Reg, imm int32) {
	b.Raw(isa.Inst{Op: op, Rd: rd, Ra: ra, Imm: imm})
}

// Li materializes a 64-bit constant into rd (1-5 instructions).
func (b *Builder) Li(rd isa.Reg, v int64) {
	if v == int64(int32(v)) {
		b.I(isa.LDI, rd, 0, int32(v))
		return
	}
	// Build from the top in 16-bit chunks to sidestep sign extension.
	b.I(isa.LDI, rd, 0, int32(int16(v>>48)))
	for shift := 32; shift >= 0; shift -= 16 {
		b.I(isa.SLLI, rd, rd, 16)
		chunk := int32(uint16(v >> uint(shift)))
		if chunk != 0 {
			b.I(isa.ORI, rd, rd, chunk)
		}
	}
}

// Mov copies ra to rd.
func (b *Builder) Mov(rd, ra isa.Reg) { b.R(isa.OR, rd, ra, isa.Zero) }

// Ld emits an 8-byte load rd <- imm(ra).
func (b *Builder) Ld(rd isa.Reg, imm int32, ra isa.Reg) { b.I(isa.LD, rd, ra, imm) }

// Ldw emits a 4-byte sign-extending load.
func (b *Builder) Ldw(rd isa.Reg, imm int32, ra isa.Reg) { b.I(isa.LDW, rd, ra, imm) }

// Ldbu emits a 1-byte zero-extending load.
func (b *Builder) Ldbu(rd isa.Reg, imm int32, ra isa.Reg) { b.I(isa.LDBU, rd, ra, imm) }

// St emits an 8-byte store of rs to imm(ra).
func (b *Builder) St(rs isa.Reg, imm int32, ra isa.Reg) { b.I(isa.ST, rs, ra, imm) }

// Stw emits a 4-byte store.
func (b *Builder) Stw(rs isa.Reg, imm int32, ra isa.Reg) { b.I(isa.STW, rs, ra, imm) }

// Stb emits a 1-byte store.
func (b *Builder) Stb(rs isa.Reg, imm int32, ra isa.Reg) { b.I(isa.STB, rs, ra, imm) }

// B emits a conditional branch (BEQ..BGE) on ra to label.
func (b *Builder) B(op isa.Op, ra isa.Reg, label string) {
	b.fixups = append(b.fixups, fixup{len(b.insts), label})
	b.Raw(isa.Inst{Op: op, Ra: ra})
}

// Br emits an unconditional direct branch to label.
func (b *Builder) Br(label string) {
	b.fixups = append(b.fixups, fixup{len(b.insts), label})
	b.Raw(isa.Inst{Op: isa.BR})
}

// Call emits a direct call to label, writing the return address to isa.RA.
func (b *Builder) Call(label string) {
	b.fixups = append(b.fixups, fixup{len(b.insts), label})
	b.Raw(isa.Inst{Op: isa.CALL, Rd: isa.RA})
}

// Jmp emits an indirect jump through ra.
func (b *Builder) Jmp(ra isa.Reg) { b.Raw(isa.Inst{Op: isa.JMP, Ra: ra}) }

// Ret emits a return through isa.RA.
func (b *Builder) Ret() { b.Raw(isa.Inst{Op: isa.RET, Ra: isa.RA}) }

// Nop emits a NOP.
func (b *Builder) Nop() { b.Raw(isa.Inst{Op: isa.NOP}) }

// Halt emits HALT.
func (b *Builder) Halt() { b.Raw(isa.Inst{Op: isa.HALT}) }

// Build resolves fixups and returns the program.
func (b *Builder) Build() (*Program, error) {
	for _, f := range b.fixups {
		ti, ok := b.labels[f.label]
		if !ok {
			b.errs = append(b.errs, fmt.Errorf("asm: undefined label %q", f.label))
			continue
		}
		// Branch immediates count instructions from the fall-through PC.
		b.insts[f.index].Imm = int32(ti - f.index - 1)
	}
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	p := &Program{
		Base:    b.base,
		Insts:   append([]isa.Inst(nil), b.insts...),
		Labels:  make(map[string]uint64, len(b.labels)),
		labelAt: make(map[uint64]string, len(b.labels)),
	}
	for name, idx := range b.labels {
		pc := b.base + uint64(idx)*isa.InstBytes
		p.Labels[name] = pc
		p.labelAt[pc] = name
	}
	return p, nil
}

// MustBuild is Build that panics on error; workload construction uses it
// because an assembly error there is a bug, not a runtime condition.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
