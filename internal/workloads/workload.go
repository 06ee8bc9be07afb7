// Package workloads contains the twelve synthetic SPEC2000-stand-in
// kernels and their hand-constructed speculative slices. Each kernel
// reproduces the hot-loop structure the paper attributes its problem
// instructions to — the vpr heap insertion of Figure 2, mcf's pointer
// chasing, gzip's match loops, gcc's rtx switch walks, parser's hash
// probes and deallocation cascades, and so on — with working sets sized
// against the simulated 64 KB L1 / 2 MB L2.
//
// Slices follow the construction process of §3.2: aggregated over
// inter-dependent problem instructions, forked early at a control-
// equivalent point hoisted past unrelated code, optimized by removing
// communication through memory and strength reduction, loop-encapsulated,
// and terminated by a profiled maximum iteration count.
package workloads

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/slicehw"
)

// Address-space conventions shared by all workloads.
const (
	// MainBase is where each kernel's program text starts.
	MainBase = 0x1000
	// SliceBase is where slice code lives ("stored as normal instructions
	// in the instruction cache", §4.2).
	SliceBase = 0x100000
	// GlobalBase is the globals page addressed through isa.GP.
	GlobalBase = 0x10000
	// DataBase is the first data region address.
	DataBase = 0x200000
)

// Workload is one benchmark: program image, memory initializer, entry
// point, and its speculative slices.
//
// Concurrency: a single *Workload may back many simultaneously running
// cores, and All and ByName hand every caller the same process-wide
// instance. Image, Slices, and the memoized slice table are immutable after
// construction and safe to share; per-run mutable state (the memory) is
// created fresh by NewMemory for every run, as a copy-on-write view of an
// initial image that is built once and never written.
type Workload struct {
	Name        string
	Description string
	Entry       uint64
	// Image is the program + slice code. The core only reads it (fetch
	// returns pointers into immutable asm.Program instruction arrays), so
	// concurrent cores share one Image safely.
	Image  *asm.Image
	Slices []*slicehw.Slice
	// InitMem populates a fresh memory with the workload's data.
	InitMem func(m *mem.Memory)
	// SuggestedRun is a measurement region length that exercises the
	// steady-state behaviour (instructions).
	SuggestedRun uint64
	// SuggestedWarmup warms caches and predictors first (instructions).
	SuggestedWarmup uint64

	tableOnce sync.Once
	table     *slicehw.Table
	memOnce   sync.Once
	memImage  *mem.Snapshot
}

// NewMemory returns a freshly initialized memory for one run: a
// copy-on-write clone of MemImage, which is also its root (see
// mem.NewFromImage), so a run copies only the pages it writes, concurrent
// runs share the rest, and a checkpoint of the run encodes only the pages
// warm-up changed.
func (w *Workload) NewMemory() *mem.Memory {
	return mem.NewFromImage(w.MemImage())
}

// MemImage returns the pristine initial memory image. InitMem runs once
// per Workload to build it; the image is never written afterwards.
func (w *Workload) MemImage() *mem.Snapshot {
	w.memOnce.Do(func() {
		m := mem.New()
		if w.InitMem != nil {
			w.InitMem(m)
		}
		w.memImage = m.Snapshot()
	})
	return w.memImage
}

// SliceTable returns the front-end slice/PGI table for this workload,
// building it on first use. The table is built exactly once per Workload:
// slicehw.NewTable assigns slice indices, so rebuilding it per run would
// race when concurrent cores share one Workload. The table itself is
// read-only after construction and safe to share across cores.
func (w *Workload) SliceTable() *slicehw.Table {
	w.tableOnce.Do(func() { w.table = slicehw.MustTable(w.Slices) })
	return w.table
}

var (
	sharedOnce sync.Once
	shared     []*Workload
)

// sharedAll builds every workload once per process. Sharing is what makes
// the per-Workload memoization pay: the engine resolves each simulation's
// workload by name, and a fresh Workload per run would rebuild its image,
// slice table and initial memory every time.
func sharedAll() []*Workload {
	sharedOnce.Do(func() {
		shared = []*Workload{
			Bzip2(), Crafty(), Eon(), Gap(), Gcc(), Gzip(),
			Mcf(), Parser(), Perl(), Twolf(), Vortex(), VPR(),
		}
	})
	return shared
}

// All returns every workload, in the paper's Table 2 order. The workloads
// are the shared process-wide instances (see Workload); callers must not
// modify them.
func All() []*Workload {
	return append([]*Workload(nil), sharedAll()...)
}

// ByName finds a workload, returning its shared process-wide instance.
func ByName(name string) (*Workload, error) {
	for _, w := range sharedAll() {
		if w.Name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range sharedAll() {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	return nil, fmt.Errorf("workloads: unknown workload %q (have %v)", name, names)
}

// xorshift emits the three-instruction xorshift scramble used as the
// deterministic per-iteration "random" value generator (state in reg st,
// scratch in tmp). The stream is uniform enough that comparison branches
// driven by it are unbiased — the defining property of problem branches.
func xorshift(b *asm.Builder, st, tmp isa.Reg) {
	b.I(isa.SLLI, tmp, st, 13)
	b.R(isa.XOR, st, st, tmp)
	b.I(isa.SRLI, tmp, st, 7)
	b.R(isa.XOR, st, st, tmp)
	b.I(isa.SLLI, tmp, st, 17)
	b.R(isa.XOR, st, st, tmp)
}

// goRand is a small deterministic generator for memory initialization.
type goRand struct{ s uint64 }

func newRand(seed uint64) *goRand { return &goRand{s: seed | 1} }

func (r *goRand) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

func (r *goRand) intn(n int) int { return int(r.next() % uint64(n)) }

// perm returns a deterministic permutation of [0, n).
func (r *goRand) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// countStatic fills in a slice's StaticSize/LoopSize from its program.
func countStatic(p *asm.Program, s *slicehw.Slice, loopLabel string) {
	s.StaticSize = len(p.Insts)
	if loopLabel != "" {
		loopPC := p.PC(loopLabel)
		s.LoopSize = int((p.End() - loopPC) / isa.InstBytes)
	}
}

// mustImage combines the main program and slice programs.
func mustImage(progs ...*asm.Program) *asm.Image {
	im, err := asm.NewImage(progs...)
	if err != nil {
		panic(err)
	}
	return im
}
