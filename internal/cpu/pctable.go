package cpu

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/slicehw"
	"repro/internal/stats"
)

// The program table: every per-PC fact the core consults, resolved once
// per program when the core is built. It is the front end's one lookup —
// the paper's slice/PGI table (§4.2, Figure 6) widened to the instruction
// itself, the limit-study bits and the retire-time stats slot. Fetch
// resolves a PC here once; the fetched instruction carries its row to
// issue and retire. The build resolves each slice's PCs to their rows
// once, straight from the slice list.

// pcRow is one image PC's entry.
type pcRow struct {
	inst *isa.Inst
	// hooks lists the slices whose fork, loop kill or slice kill fires
	// when a main thread fetches this PC; nil where nothing fires.
	hooks *sliceHooks
	// pgi is the PGI-table entry when this slice-code PC generates a
	// prediction; nil elsewhere, and everywhere when the program has no
	// slice table or Config.SlicePredictionsOff is set.
	pgi *slicehw.PGIRef
	// perfectBranch and perfectLoad are Config.Perfect resolved for this
	// PC (main threads only consult them).
	perfectBranch, perfectLoad bool
	// stat is the PC's Sim.ByPC record, resolved at its first retire;
	// ResetStats clears it because the reset replaces the Static map.
	stat *stats.Static
}

// sliceHooks are the slice-table CAM hits of one main-thread fetch PC,
// each list in slice-index order.
type sliceHooks struct {
	forks, loopKills, sliceKills []*slicehw.Slice
}

// hook returns r's hook lists, allocating them at the first slice PC
// resolved to r.
func (r *pcRow) hook() *sliceHooks {
	if r.hooks == nil {
		r.hooks = &sliceHooks{}
	}
	return r.hooks
}

// pcSeg covers one program region of the image.
type pcSeg struct {
	base, end uint64
	rows      []pcRow
}

// pcTable is a program's table: one segment per image region.
type pcTable []pcSeg

// newPCTable builds the table of one program under cfg. st may be nil (no
// slice hardware). A slice PC that is not an instruction of the image is
// an error: its fork, kill or PGI would never fire, and a helper started
// there would stop at once.
func newPCTable(image *asm.Image, st *slicehw.Table, cfg *Config) (pcTable, error) {
	var t pcTable
	for _, pr := range image.Programs() {
		seg := pcSeg{base: pr.Base, end: pr.End(), rows: make([]pcRow, len(pr.Insts))}
		for i := range seg.rows {
			pc := pr.Base + uint64(i)*isa.InstBytes
			r := &seg.rows[i]
			r.inst = &pr.Insts[i]
			r.perfectBranch = cfg.Perfect.AllBranches || cfg.Perfect.BranchPCs[pc]
			r.perfectLoad = cfg.Perfect.AllLoads || cfg.Perfect.LoadPCs[pc]
		}
		t = append(t, seg)
	}
	if st == nil {
		return t, nil
	}
	for _, s := range st.Slices() {
		// at resolves one of s's PCs to its row, recording the first PC
		// that is off the image. Zero marks an unused loop or kill PC
		// (NewTable requires the fork and slice PCs).
		var err error
		at := func(name string, pc uint64) *pcRow {
			if pc == 0 || err != nil {
				return nil
			}
			r := t.at(pc)
			if r == nil {
				err = fmt.Errorf("slice %q: %s PC %#x is not an instruction of the image", s.Name, name, pc)
			}
			return r
		}
		if r := at("fork", s.ForkPC); r != nil {
			h := r.hook()
			h.forks = append(h.forks, s)
		}
		at("slice", s.SlicePC)
		at("loop-back", s.LoopBackPC)
		if r := at("loop-kill", s.LoopKillPC); r != nil {
			h := r.hook()
			h.loopKills = append(h.loopKills, s)
		}
		if r := at("slice-kill", s.SliceKillPC); r != nil {
			h := r.hook()
			h.sliceKills = append(h.sliceKills, s)
		}
		for j := range s.PGIs {
			if r := at("PGI", s.PGIs[j].SlicePC); r != nil && !cfg.SlicePredictionsOff {
				r.pgi = &slicehw.PGIRef{Slice: s, PGI: &s.PGIs[j]}
			}
		}
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}

// at returns pc's row, or nil when pc is not an instruction of the image.
func (t pcTable) at(pc uint64) *pcRow {
	for i := range t {
		s := &t[i]
		if pc >= s.base && pc < s.end {
			if (pc-s.base)%isa.InstBytes != 0 {
				return nil
			}
			return &s.rows[(pc-s.base)/isa.InstBytes]
		}
	}
	return nil
}

// static returns pc's stats record through its row's cached slot.
func (p *progState) static(r *pcRow, pc uint64) *stats.Static {
	if r.stat == nil {
		r.stat = p.S.ByPC(pc)
	}
	return r.stat
}

// clearStats drops every cached stats slot; the next retire per PC
// re-resolves against the fresh Static map.
func (t pcTable) clearStats() {
	for i := range t {
		for j := range t[i].rows {
			t[i].rows[j].stat = nil
		}
	}
}
