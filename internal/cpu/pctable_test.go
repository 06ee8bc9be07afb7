package cpu

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/slicehw"
	"repro/internal/workloads"
)

// TestPCTableMatchesSources: for every workload under every setup that
// changes what the program table holds, each image PC's row agrees with
// the sources it was built from — the image, the slice table's CAMs and
// PGI table, and Config.Perfect — and its stats slot is the record
// Sim.ByPC holds, including after ResetStats replaces the Static map.
func TestPCTableMatchesSources(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			problem := Perfect{BranchPCs: map[uint64]bool{}, LoadPCs: map[uint64]bool{}}
			for _, s := range w.Slices {
				for _, pc := range s.CoveredLoadPCs {
					problem.LoadPCs[pc] = true
				}
				for _, pc := range s.CoveredBranchPCs() {
					problem.BranchPCs[pc] = true
				}
				if _, ok := problem.BranchPCs[s.ForkPC]; !ok {
					problem.BranchPCs[s.ForkPC] = false // listed but off: not perfected
				}
			}
			for _, tc := range []struct {
				name     string
				slices   bool
				predsOff bool
				perfect  Perfect
			}{
				{name: "base"},
				{name: "slices", slices: true},
				{name: "predsOff", slices: true, predsOff: true},
				{name: "perfectAll", perfect: Perfect{AllBranches: true, AllLoads: true}},
				{name: "perfectProblem", slices: true, perfect: problem},
			} {
				cfg := Config4Wide()
				cfg.SlicePredictionsOff = tc.predsOff
				cfg.Perfect = tc.perfect
				var st *slicehw.Table
				if tc.slices {
					st = w.SliceTable()
				}
				core := MustNew(cfg, w.Image, w.NewMemory(), w.Entry, st)
				checkPCRows(t, tc.name, core, st)
				checkStatSlots(t, tc.name, core)
			}
		})
	}
}

// checkPCRows compares every image PC's row, and a few PCs off the
// image, with the table's sources.
func checkPCRows(t *testing.T, setup string, c *Core, st *slicehw.Table) {
	t.Helper()
	p := c.progs[0]
	perf := c.cfg.Perfect
	hooked := 0
	for _, pr := range p.image.Programs() {
		for pc := pr.Base; pc < pr.End(); pc += isa.InstBytes {
			r := p.pcs.at(pc)
			in, _ := p.image.At(pc)
			if r == nil || r.inst != in {
				t.Fatalf("%s: pc %#x: row instruction differs from Image.At", setup, pc)
			}
			var forks, loopKills, sliceKills []*slicehw.Slice
			if r.hooks != nil {
				hooked++
				forks, loopKills, sliceKills = r.hooks.forks, r.hooks.loopKills, r.hooks.sliceKills
				if len(forks)+len(loopKills)+len(sliceKills) == 0 {
					t.Errorf("%s: pc %#x: empty hooks allocated", setup, pc)
				}
			}
			var wantPGI *slicehw.PGIRef
			if st != nil {
				if !slices.Equal(forks, st.ForksAt(pc)) || !slices.Equal(loopKills, st.LoopKillsAt(pc)) ||
					!slices.Equal(sliceKills, st.SliceKillsAt(pc)) {
					t.Errorf("%s: pc %#x: hooks differ from ForksAt/LoopKillsAt/SliceKillsAt", setup, pc)
				}
				if ref, ok := st.PGIAt(pc); ok && !c.cfg.SlicePredictionsOff {
					wantPGI = &ref
				}
			} else if r.hooks != nil {
				t.Errorf("%s: pc %#x: hooks without a slice table", setup, pc)
			}
			if (r.pgi == nil) != (wantPGI == nil) || (r.pgi != nil && *r.pgi != *wantPGI) {
				t.Errorf("%s: pc %#x: pgi %v, PGIAt gives %v", setup, pc, r.pgi, wantPGI)
			}
			if r.perfectBranch != (perf.AllBranches || perf.BranchPCs[pc]) ||
				r.perfectLoad != (perf.AllLoads || perf.LoadPCs[pc]) {
				t.Errorf("%s: pc %#x: perfect bits branch=%t load=%t disagree with Config.Perfect",
					setup, pc, r.perfectBranch, r.perfectLoad)
			}
		}
		for _, pc := range []uint64{pr.Base + 1, pr.End(), pr.Base - isa.InstBytes} {
			if _, ok := p.image.At(pc); !ok && p.pcs.at(pc) != nil {
				t.Errorf("%s: off-image pc %#x has a row", setup, pc)
			}
		}
	}
	if st != nil && len(st.Slices()) > 0 && hooked == 0 {
		t.Errorf("%s: no row carries a fork or kill", setup)
	}
}

// checkStatSlots runs the core across a ResetStats and requires every
// filled stats slot to be the record Sim.ByPC returns, and every record
// in the Static map to be reachable through its slot.
func checkStatSlots(t *testing.T, setup string, c *Core) {
	t.Helper()
	p := c.progs[0]
	c.Run(4_000)
	c.ResetStats()
	for _, seg := range p.pcs {
		for i := range seg.rows {
			if seg.rows[i].stat != nil {
				t.Fatalf("%s: ResetStats left a stats slot filled at pc %#x", setup, seg.base+uint64(i)*isa.InstBytes)
			}
		}
	}
	c.Run(4_000)
	for _, seg := range p.pcs {
		for i := range seg.rows {
			pc := seg.base + uint64(i)*isa.InstBytes
			if s := seg.rows[i].stat; s != nil && s != p.S.Static[pc] {
				t.Errorf("%s: pc %#x: stats slot is not Sim.ByPC's record", setup, pc)
			}
		}
	}
	if len(p.S.Static) == 0 {
		t.Fatalf("%s: nothing retired", setup)
	}
	for pc, s := range p.S.Static {
		if r := p.pcs.at(pc); r == nil || r.stat != s {
			t.Errorf("%s: Sim.ByPC(%#x) is not in its row's stats slot", setup, pc)
		}
	}
}

// TestNewRejectsOffImageSlicePC: a slice PC that is not an instruction of
// the image (here a kill PC past the image's end, or one between two
// instructions) is refused when the core is built, with an error naming
// the slice and the PC, instead of a kill that silently never fires.
func TestNewRejectsOffImageSlicePC(t *testing.T) {
	w := buildMini(t, 10)
	progs := w.image.Programs()
	offImage := progs[len(progs)-1].End() + 16*isa.InstBytes
	for _, tc := range []struct {
		name    string
		corrupt func(s *slicehw.Slice) uint64
	}{
		{"slice-kill", func(s *slicehw.Slice) uint64 { s.SliceKillPC = offImage; return offImage }},
		{"loop-kill", func(s *slicehw.Slice) uint64 { s.LoopKillPC = s.ForkPC + 1; return s.LoopKillPC }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := *w.slices[0]
			pc := tc.corrupt(&bad)
			m := mem.New()
			w.initMem(m)
			_, err := New(Config4Wide(), w.image, m, w.entry, slicehw.MustTable([]*slicehw.Slice{&bad}))
			if err == nil {
				t.Fatalf("off-image %s PC %#x accepted", tc.name, pc)
			}
			for _, want := range []string{fmt.Sprintf("%q", bad.Name), tc.name, fmt.Sprintf("%#x", pc)} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not name %s", err, want)
				}
			}
		})
	}
}
