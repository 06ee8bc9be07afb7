// Package autoslice implements automatic slice construction (§3.3). The
// paper's slices were built by hand as a proof of concept; it cites Roth &
// Sohi's trace-based selection of un-optimized slices as the automated
// route and calls automated optimization "important future work". This
// package provides that pipeline:
//
//  1. collect an execution trace with per-instruction register dataflow;
//  2. cluster the profiled problem PCs into groups whose dynamic instances
//     interleave — one fork point serves one group;
//  3. pick a fork point for each group — a PC that precedes the problem
//     instances at a useful, consistent distance (§3.2's "sweet spot"
//     search, done mechanically);
//  4. compute the backward dataflow slice of each problem instance within
//     the fork-to-problem window and union the marked instructions,
//     if-converting short guarded hammocks via CMOV so the slice keeps a
//     single control path;
//  5. optimize the unrolled straight-line code (§3.2 done mechanically:
//     constant folding with strength reduction, duplicate elimination
//     across unrolled instances, dead-code elimination, and loop
//     re-rolling — see optimize.go);
//  6. emit an executable slice program: stores dropped, control flow
//     dropped (each problem branch's compare becomes a PGI), live-ins
//     derived from reads-before-writes.
//
// The result is a speculative slice in exactly Roth & Sohi's sense:
// correct most of the time, bounded, and purely microarchitectural.
// Whether a built candidate is *good* is decided downstream, by running it
// against the differential oracle and the measured override accuracy
// (harness.FigureAuto).
package autoslice

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"

	"repro/internal/asm"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/slicehw"
)

// traceEntry is one dynamic instruction with its dataflow edges.
type traceEntry struct {
	pc uint64
	in *isa.Inst
	// src[i] is the trace index of the producer of the i-th source
	// register, or -1 if it was live before the trace began.
	src  [3]int32
	nsrc int
}

// Trace is a recorded execution with register-dependence edges.
type Trace struct {
	entries []traceEntry
	// byPC indexes dynamic instances of each static instruction.
	byPC map[uint64][]int32
}

// CollectTrace functionally executes the image for n instructions from
// entry on a cpu.Stepper, recording the register dataflow. The memory is
// mutated (pass a fresh one).
func CollectTrace(image *asm.Image, m *mem.Memory, entry uint64, n int) (*Trace, error) {
	tr := &Trace{byPC: make(map[uint64][]int32)}
	var lastWrite [isa.NumRegs]int32
	for i := range lastWrite {
		lastWrite[i] = -1
	}
	s := cpu.NewStepper(image, m, entry)
	var out isa.Outcome
	for len(tr.entries) < n && !s.Halted() {
		pc := s.PC()
		in, err := s.Step(&out)
		if err != nil {
			return nil, fmt.Errorf("autoslice: trace fell off the image at %#x", pc)
		}
		e := traceEntry{pc: pc, in: in}
		for _, r := range in.Sources() {
			e.src[e.nsrc] = lastWrite[r]
			e.nsrc++
		}
		idx := int32(len(tr.entries))
		if d, ok := in.Dest(); ok {
			lastWrite[d] = idx
		}
		tr.entries = append(tr.entries, e)
		tr.byPC[pc] = append(tr.byPC[pc], idx)
	}
	return tr, nil
}

// Len returns the trace length.
func (t *Trace) Len() int { return len(t.entries) }

// --- Problem-PC clustering ---

// ClusterProblemPCs groups problem PCs whose dynamic instances interleave
// within gap trace instructions of each other: such PCs share an episode
// structure and one fork point (and one slice) can serve the whole group.
// PCs with no dynamic instance in the trace cannot be clustered or sliced
// and are returned in skipped. Groups are ordered by the trace index of
// their earliest instance; PCs within a group are sorted ascending. Both
// orders are deterministic for reproducible candidate naming.
func ClusterProblemPCs(t *Trace, problemPCs []uint64, gap int) (groups [][]uint64, skipped []uint64) {
	type instance struct {
		idx int32
		pc  uint64
	}
	var insts []instance
	seen := make(map[uint64]bool)
	for _, pc := range problemPCs {
		if seen[pc] {
			continue
		}
		seen[pc] = true
		idxs := t.byPC[pc]
		if len(idxs) == 0 {
			skipped = append(skipped, pc)
			continue
		}
		for _, i := range idxs {
			insts = append(insts, instance{i, pc})
		}
	}
	sort.Slice(skipped, func(i, j int) bool { return skipped[i] < skipped[j] })
	if len(insts) == 0 {
		return nil, skipped
	}
	sort.Slice(insts, func(a, b int) bool { return insts[a].idx < insts[b].idx })

	// Union-find over PCs: adjacent instances within the gap join their
	// PCs into one cluster.
	parent := make(map[uint64]uint64)
	var find func(uint64) uint64
	find = func(pc uint64) uint64 {
		p, ok := parent[pc]
		if !ok || p == pc {
			parent[pc] = pc
			return pc
		}
		r := find(p)
		parent[pc] = r
		return r
	}
	for k := 0; k+1 < len(insts); k++ {
		if int(insts[k+1].idx-insts[k].idx) <= gap {
			parent[find(insts[k].pc)] = find(insts[k+1].pc)
		}
	}

	first := make(map[uint64]int32)             // root → earliest instance index
	members := make(map[uint64]map[uint64]bool) // root → PC set
	var rootOrder []uint64
	for _, in := range insts {
		r := find(in.pc)
		if _, ok := first[r]; !ok {
			first[r] = in.idx
			members[r] = make(map[uint64]bool)
			rootOrder = append(rootOrder, r)
		}
		members[r][in.pc] = true
	}
	sort.Slice(rootOrder, func(i, j int) bool { return first[rootOrder[i]] < first[rootOrder[j]] })
	for _, r := range rootOrder {
		var g []uint64
		for pc := range members[r] {
			g = append(g, pc)
		}
		sort.Slice(g, func(i, j int) bool { return g[i] < g[j] })
		groups = append(groups, g)
	}
	return groups, skipped
}

// --- Fork point selection ---

// ForkCandidate scores one potential fork PC for a problem-PC set.
type ForkCandidate struct {
	PC uint64
	// Coverage is the fraction of problem episodes that had this PC
	// fetched within the search window before them.
	Coverage float64
	// MeanLead is the average dynamic-instruction distance from the fork
	// to the first covered problem instance.
	MeanLead float64
	// Equivalence measures control equivalence: episodes per dynamic
	// execution of this PC over the scored span. A good fork point
	// executes exactly once per episode (1.0); loop-body PCs execute more
	// often and score lower — forking at them re-forks mid-iteration and
	// churns the correlator.
	Equivalence float64
	// Purity is the fraction of covered episodes with no problem instance
	// between the fork and the episode it targets. An impure fork sits
	// inside (or before) the previous episode's burst, so the predictions
	// it computes for the next burst are consumed — wrongly — by the
	// previous burst's remaining instances.
	Purity float64
}

// SelectForkPoint finds a PC that consistently precedes the problem PCs'
// dynamic instances by between minLead and maxLead instructions — the
// mechanical version of §3.2's balancing act (early enough to tolerate
// latency, close enough to stay control-equivalent). It returns candidates
// sorted best-first.
//
// Numerator and denominator of every score are computed over the same
// episode set and trace span: episodes too early to fit even a minLead
// window are excluded from both sides, and windows that extend past the
// trace start are clipped rather than discarded, so short traces still
// yield candidates and whole-trace execution counts cannot deflate the
// equivalence of a fork that covers every episode it could see.
func SelectForkPoint(t *Trace, problemPCs []uint64, minLead, maxLead int) []ForkCandidate {
	// Gather the first instance of each "episode": consecutive problem
	// instances close together belong to one episode (one loop's worth of
	// instances needs one fork).
	var all []int32
	for _, pc := range problemPCs {
		all = append(all, t.byPC[pc]...)
	}
	if len(all) == 0 {
		return nil
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })

	// The episode boundary is adaptive: a problem set living in a tight
	// loop (instances every few instructions, forever) has no minLead-wide
	// gaps at all, and a fixed boundary of minLead would fuse the whole
	// trace into one episode whose only "preceding" PCs are the program
	// prologue — a fork point that executes exactly once and never again.
	// Splitting at gaps clearly above the typical instance spacing
	// recovers the real iteration structure: each burst of instances (one
	// outer-loop iteration's worth) becomes an episode, and the recurring
	// PCs of the previous iterations become the fork candidates.
	epGap := minLead
	if len(all) > 8 {
		gaps := make([]int32, 0, len(all)-1)
		for i := 1; i < len(all); i++ {
			gaps = append(gaps, all[i]-all[i-1])
		}
		sort.Slice(gaps, func(i, j int) bool { return gaps[i] < gaps[j] })
		if g := 3 * int(gaps[len(gaps)/2]); g < epGap {
			epGap = g
			if epGap < 4 {
				epGap = 4
			}
		}
	}

	// When episodes recur faster than minLead (tight outer loops), a fork
	// a full minLead ahead necessarily sits inside the previous burst and
	// its predictions get stolen (see Purity). Shrink the minimum lead
	// toward the typical quiet gap between bursts so the window can land
	// in the instance-free stretch just before each episode.
	minLeadEff := minLead
	{
		var quiet []int32
		last := int32(-1 << 30)
		for _, i := range all {
			if g := i - last; last >= 0 && int(g) > epGap {
				quiet = append(quiet, g)
			}
			last = i
		}
		if len(quiet) > 0 {
			sort.Slice(quiet, func(i, j int) bool { return quiet[i] < quiet[j] })
			if q := int(quiet[len(quiet)/2]) - 2; q < minLeadEff {
				minLeadEff = q
				if minLeadEff < 4 {
					minLeadEff = 4
				}
			}
		}
	}

	var scored []int32
	last := int32(-1 << 30)
	for _, i := range all {
		// An episode whose first instance has no room for even a minimal
		// window is excluded from both numerator and denominator below.
		if int(i-last) > epGap && int(i) >= minLeadEff {
			scored = append(scored, i)
		}
		last = i
	}
	if len(scored) == 0 {
		return nil
	}

	type score struct {
		hits int
		lead int
		pure int
	}
	scores := make(map[uint64]*score)
	for _, fi := range scored {
		lo := int(fi) - maxLead
		if lo < 0 {
			lo = 0 // clipped window: score what the trace has
		}
		hi := int(fi) - minLeadEff
		// The episode is pure for a fork occurrence at j iff no problem
		// instance lies strictly between j and fi.
		pureAbove := int32(lo) - 1 // occurrences above this index are pure
		if k := sort.Search(len(all), func(k int) bool { return all[k] >= fi }); k > 0 && all[k-1] > pureAbove {
			pureAbove = all[k-1]
		}
		seen := make(map[uint64]bool)
		for j := hi; j >= lo; j-- {
			pc := t.entries[j].pc
			if seen[pc] {
				continue // closest occurrence only
			}
			seen[pc] = true
			s := scores[pc]
			if s == nil {
				s = &score{}
				scores[pc] = s
			}
			s.hits++
			s.lead += int(fi) - j
			if int32(j) > pureAbove {
				s.pure++
			}
		}
	}

	// Equivalence compares episode count to execution count over the same
	// span the windows cover — not the whole trace.
	spanLo := scored[0] - int32(maxLead)
	if spanLo < 0 {
		spanLo = 0
	}
	spanHi := scored[len(scored)-1]
	var out []ForkCandidate
	for pc, s := range scores {
		execs := countInRange(t.byPC[pc], spanLo, spanHi)
		if execs == 0 {
			execs = s.hits // defensive; windows lie inside the span
		}
		eq := float64(len(scored)) / float64(execs)
		if eq > 1 {
			eq = 1 / eq // executing less often than once per episode is equally bad
		}
		out = append(out, ForkCandidate{
			PC:          pc,
			Coverage:    float64(s.hits) / float64(len(scored)),
			MeanLead:    float64(s.lead) / float64(s.hits),
			Equivalence: eq,
			Purity:      float64(s.pure) / float64(s.hits),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		// Prefer control-equivalent, pure candidates, then coverage, then
		// the longest lead, then lowest PC for determinism.
		ei := out[i].Equivalence >= 0.9 && out[i].Purity >= 0.9
		ej := out[j].Equivalence >= 0.9 && out[j].Purity >= 0.9
		if ei != ej {
			return ei
		}
		if out[i].Coverage != out[j].Coverage {
			return out[i].Coverage > out[j].Coverage
		}
		if out[i].MeanLead != out[j].MeanLead {
			return out[i].MeanLead > out[j].MeanLead
		}
		return out[i].PC < out[j].PC
	})
	return out
}

// countInRange counts values in [lo, hi] within an ascending slice.
func countInRange(idxs []int32, lo, hi int32) int {
	a := sort.Search(len(idxs), func(k int) bool { return idxs[k] >= lo })
	b := sort.Search(len(idxs), func(k int) bool { return idxs[k] > hi })
	return b - a
}

// --- Slice extraction ---

// Construction bounds.
const (
	// MaxSliceLen caps the emitted (unrolled) slice body.
	MaxSliceLen = 48
	// MaxLiveIns rejects slices needing too much register communication
	// (the paper: "rarely are more than 4 values required").
	MaxLiveIns = 4
	// SliceBase is the lowest code address for generated slice
	// programs, clear of every workload's main program, globals, and
	// hand-built slices.
	SliceBase = 0x180000
)

// Built is the constructed slice plus its code.
type Built struct {
	Slice   *slicehw.Slice
	Program *asm.Program
	// Window is the representative fork→end trace window used.
	WindowStart, WindowEnd int32
}

// Fingerprint returns a short content hash over the slice program and
// metadata, used to give candidate slice sets stable, deterministic names.
func (bu *Built) Fingerprint() string {
	h := sha256.New()
	fmt.Fprintf(h, "%#x\n", bu.Program.Base)
	for i := range bu.Program.Insts {
		fmt.Fprintf(h, "%v\n", bu.Program.Insts[i])
	}
	fmt.Fprintf(h, "%+v\n", *bu.Slice)
	return hex.EncodeToString(h.Sum(nil))[:12]
}

// maxHammock bounds if-conversion to short guarded hammocks (in
// instructions); longer guarded regions are control flow the slice simply
// does not replicate (§3.1).
const maxHammock = 3

// guardInfo records the branch guarding an if-converted instruction: the
// CMOV fires exactly when the guard would *not* have been taken.
type guardInfo struct {
	op  isa.Op
	reg isa.Reg
}

// Build constructs an optimized speculative slice for problemPCs, forked
// at forkPC, from a representative trace window. Every conditional problem
// branch contributes a PGI (its compare condition is re-materialized into
// AT); problem loads become prefetches; short hammocks guarding marked
// instructions are if-converted via CMOV so the emitted code stays a
// single straight-line (or re-rolled) path. The slice program is emitted
// at code address base.
func Build(t *Trace, forkPC uint64, problemPCs []uint64, base uint64) (*Built, error) {
	problem := make(map[uint64]bool, len(problemPCs))
	for _, pc := range problemPCs {
		problem[pc] = true
	}

	start, end, err := representativeWindow(t, forkPC, problem)
	if err != nil {
		return nil, err
	}

	// Backward dataflow slice of every problem instance in the window.
	marked := make(map[int32]bool)
	var work []int32
	for i := start; i < end; i++ {
		if problem[t.entries[i].pc] {
			work = append(work, i)
		}
	}
	if len(work) == 0 {
		return nil, fmt.Errorf("autoslice: no problem instances in the window")
	}
	propagate(t, start, marked, work)

	// If-convert short hammocks that guard marked instructions, then pull
	// the guards' own producers into the slice.
	ifconv, guards := markHammocks(t, start, end, problem, marked)
	propagate(t, start, marked, guards)

	var order []int32
	for i := range marked {
		order = append(order, i)
	}
	sort.Slice(order, func(a, b int) bool { return order[a] < order[b] })

	scratch := pickScratch(t, order, ifconv)
	slots := buildSlots(t, order, problem, ifconv, scratch)
	slots = optimize(slots)
	if len(slots) > MaxSliceLen {
		// A prefix of the slot list is dataflow-closed by construction;
		// re-run DCE to drop feeders of the truncated roots.
		slots = deadCode(slots[:MaxSliceLen])
	}
	pro, body, reps := reroll(slots)

	// Emission. PGI slice PCs bind here, after every pass that renumbers.
	b := asm.NewBuilder(base)
	b.Label("auto")
	var pgis []slicehw.PGI
	var loadPCs []uint64
	seenLoad := make(map[uint64]bool)
	emit := func(s *slot) {
		if s.pgi != nil {
			p := *s.pgi
			p.SlicePC = b.PC()
			pgis = append(pgis, p)
		}
		if s.problemLoad != 0 && !seenLoad[s.problemLoad] {
			seenLoad[s.problemLoad] = true
			loadPCs = append(loadPCs, s.problemLoad)
		}
		b.Raw(s.in)
	}
	for i := range pro {
		emit(&pro[i])
	}
	if reps > 0 {
		b.Label("auto_loop")
		for i := range body {
			emit(&body[i])
		}
		b.Label("auto_back")
		b.Br("auto_loop")
	}
	b.Halt()
	prog, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("autoslice: emit: %w", err)
	}
	if len(prog.Insts) <= 1 {
		return nil, fmt.Errorf("autoslice: empty slice")
	}

	liveIns := liveInsOf(prog.Insts)
	if len(liveIns) > MaxLiveIns {
		return nil, fmt.Errorf("autoslice: %d live-ins exceed the bound of %d (the paper: rarely more than 4)",
			len(liveIns), MaxLiveIns)
	}

	sl := &slicehw.Slice{
		Name:           fmt.Sprintf("auto@%#x", forkPC),
		ForkPC:         forkPC,
		SlicePC:        prog.PC("auto"),
		LiveIns:        liveIns,
		PGIs:           pgis,
		CoveredLoadPCs: loadPCs,
		StaticSize:     len(prog.Insts) - 1, // minus the HALT
	}
	if reps > 0 {
		sl.LoopBackPC = prog.PC("auto_back")
		sl.MaxLoops = reps + 2 // slack for windows shorter than the real iteration count
		sl.LoopSize = int((prog.End() - prog.PC("auto_loop")) / isa.InstBytes)
	}
	if len(pgis) > 0 {
		// The fork PC doubles as the slice kill: at each re-fetch of the
		// fork, the previous activation's region is over. The skip-first
		// exemption spares the instance forked by that same fetch (forks
		// are serviced before kills at a PC).
		sl.SliceKillPC = forkPC
		sl.SliceKillSkipFirst = true
		// A loop-iteration kill keeps per-iteration predictions aligned
		// even when the helper allocates just in time (§5.1's selection,
		// done mechanically).
		if killPC, skip, ok := selectLoopKill(t, start, end, problem); ok {
			sl.LoopKillPC = killPC
			sl.LoopKillSkipFirst = skip
		}
	}
	return &Built{Slice: sl, Program: prog, WindowStart: start, WindowEnd: end}, nil
}

// propagate runs the backward-marking fixpoint from the work list: a
// marked instruction pulls in every producer of its sources that lies
// inside the window.
func propagate(t *Trace, start int32, marked map[int32]bool, work []int32) {
	for len(work) > 0 {
		i := work[len(work)-1]
		work = work[:len(work)-1]
		if marked[i] {
			continue
		}
		marked[i] = true
		e := &t.entries[i]
		for k := 0; k < e.nsrc; k++ {
			if p := e.src[k]; p >= start {
				work = append(work, p)
			}
		}
	}
}

// markHammocks finds short not-taken hammocks guarding marked
// instructions: a non-problem conditional branch whose fall-through region
// (up to maxHammock instructions, ending at the branch target) executed
// straight-line in the trace and contains marked instructions. Each such
// marked instruction is recorded for if-conversion, and the guard branch
// is marked so its condition's producers join the slice (the emitted CMOV
// reads the guard register). Returns the if-conversion map and the newly
// marked guard indices for a propagation pass.
func markHammocks(t *Trace, start, end int32, problem map[uint64]bool, marked map[int32]bool) (map[int32]guardInfo, []int32) {
	ifconv := make(map[int32]guardInfo)
	var guards []int32
	for j := start; j < end; j++ {
		g := &t.entries[j]
		if !g.in.IsCondBranch() || problem[g.pc] || g.in.Ra == isa.Zero {
			continue
		}
		tgt := g.in.BranchTarget(g.pc)
		if tgt <= g.pc+isa.InstBytes {
			continue // backward or degenerate: not a hammock guard
		}
		span := int32((tgt - (g.pc + isa.InstBytes)) / isa.InstBytes)
		if span < 1 || span > maxHammock || j+span >= end {
			continue
		}
		ok := false
		for d := int32(1); d <= span; d++ {
			e := &t.entries[j+d]
			if e.pc != g.pc+uint64(d)*isa.InstBytes {
				ok = false
				break // the trace took the branch: nothing guarded executed
			}
			in := e.in
			d2, hasDest := in.Dest()
			if in.IsCtrl() || in.IsStore() || problem[e.pc] || !hasDest || d2 == g.in.Ra {
				ok = false
				break // unconvertible body, or it clobbers the guard register
			}
			if marked[j+d] {
				ok = true
			}
		}
		if !ok {
			continue
		}
		for d := int32(1); d <= span; d++ {
			if marked[j+d] {
				ifconv[j+d] = guardInfo{op: g.in.Op, reg: g.in.Ra}
			}
		}
		if !marked[j] {
			guards = append(guards, j)
		}
	}
	return ifconv, guards
}

// pickScratch chooses a register unused by any instruction the slice will
// emit (and by the PGI convention, which owns AT) to hold if-converted
// shadow results. Returns Zero when every register is taken — the caller
// then skips if-conversion rather than corrupting live state.
func pickScratch(t *Trace, order []int32, ifconv map[int32]guardInfo) isa.Reg {
	used := make(map[isa.Reg]bool)
	used[isa.Zero] = true
	used[isa.AT] = true
	for _, i := range order {
		in := t.entries[i].in
		for _, r := range in.Sources() {
			used[r] = true
		}
		if d, ok := in.Dest(); ok {
			used[d] = true
		}
	}
	for _, gi := range ifconv {
		used[gi.reg] = true
	}
	for r := isa.Reg(isa.NumRegs - 1); r > isa.Zero; r-- {
		if !used[r] {
			return r
		}
	}
	return isa.Zero
}

// pgiFor maps a conditional problem branch to the instruction that
// re-materializes its condition into AT, plus the TakenIfZero polarity
// that makes the PGI value predict the branch. Every conditional branch
// op has a mapping (the fix for the old BEQ/BNE-only restriction).
func pgiFor(in *isa.Inst) (isa.Inst, bool) {
	switch in.Op {
	case isa.BEQ: // taken iff ra == 0
		return movInst(isa.AT, in.Ra), true
	case isa.BNE: // taken iff ra != 0
		return movInst(isa.AT, in.Ra), false
	case isa.BLT: // taken iff ra < 0: AT = (ra < 0)
		return isa.Inst{Op: isa.CMPLT, Rd: isa.AT, Ra: in.Ra}, false
	case isa.BGE: // taken iff ra >= 0: AT = (ra < 0), inverted
		return isa.Inst{Op: isa.CMPLT, Rd: isa.AT, Ra: in.Ra}, true
	case isa.BLE: // taken iff ra <= 0: AT = (ra <= 0)
		return isa.Inst{Op: isa.CMPLE, Rd: isa.AT, Ra: in.Ra}, false
	case isa.BGT: // taken iff ra > 0: AT = (ra <= 0), inverted
		return isa.Inst{Op: isa.CMPLE, Rd: isa.AT, Ra: in.Ra}, true
	}
	return isa.Inst{}, false
}

// cmovFor maps a guard branch op to the conditional move that fires when
// the guard is NOT taken (the hammock body executed).
func cmovFor(op isa.Op) isa.Op {
	switch op {
	case isa.BEQ:
		return isa.CMOVNE
	case isa.BNE:
		return isa.CMOVEQ
	case isa.BLT:
		return isa.CMOVGE
	case isa.BGE:
		return isa.CMOVLT
	case isa.BLE:
		return isa.CMOVGT
	case isa.BGT:
		return isa.CMOVLE
	}
	return isa.CMOVNE
}

// buildSlots lowers the marked trace entries, in trace order, into the
// optimizer's slot IR: stores and non-problem control dropped, problem
// branches lowered to PGI slots, if-converted entries lowered to a
// shadow-compute + CMOV pair.
func buildSlots(t *Trace, order []int32, problem map[uint64]bool, ifconv map[int32]guardInfo, scratch isa.Reg) []slot {
	var slots []slot
	for _, i := range order {
		e := &t.entries[i]
		in := *e.in
		switch {
		case in.IsStore():
			continue // speculative slices perform no stores (§4.1)
		case in.IsCondBranch():
			if !problem[e.pc] {
				continue // guards are if-converted, not replicated (§3.1)
			}
			pin, tiz := pgiFor(&in)
			slots = append(slots, slot{
				in:  pin,
				pgi: &slicehw.PGI{BranchPC: e.pc, TakenIfZero: tiz},
			})
			continue
		case in.IsCtrl():
			continue
		}
		if gi, ok := ifconv[i]; ok && scratch != isa.Zero {
			shadow := in
			shadow.Rd = scratch
			slots = append(slots,
				slot{in: shadow},
				slot{in: isa.Inst{Op: cmovFor(gi.op), Rd: in.Rd, Ra: gi.reg, Rb: scratch}})
			continue
		}
		s := slot{in: in}
		if in.IsLoad() && problem[e.pc] {
			s.problemLoad = e.pc
		}
		slots = append(slots, s)
	}
	return slots
}

// representativeWindow picks the fork instance whose fork→next-fork window
// has the median number of problem instances.
func representativeWindow(t *Trace, forkPC uint64, problem map[uint64]bool) (int32, int32, error) {
	forks := t.byPC[forkPC]
	if len(forks) == 0 {
		return 0, 0, fmt.Errorf("autoslice: fork PC %#x never executes in the trace", forkPC)
	}
	type win struct {
		start, end int32
		n          int
	}
	var wins []win
	for k, f := range forks {
		end := int32(t.Len())
		if k+1 < len(forks) {
			end = forks[k+1]
		}
		n := 0
		for i := f; i < end; i++ {
			if problem[t.entries[i].pc] {
				n++
			}
		}
		if n > 0 {
			wins = append(wins, win{f, end, n})
		}
	}
	if len(wins) == 0 {
		return 0, 0, fmt.Errorf("autoslice: no fork window contains a problem instance")
	}
	sort.Slice(wins, func(i, j int) bool { return wins[i].n < wins[j].n })
	w := wins[len(wins)/2]
	return w.start, w.end, nil
}

// liveInsOf returns the registers read before written by the sequence.
func liveInsOf(insts []isa.Inst) []isa.Reg {
	written := make(map[isa.Reg]bool)
	var live []isa.Reg
	seen := make(map[isa.Reg]bool)
	for i := range insts {
		in := &insts[i]
		for _, r := range in.Sources() {
			if !written[r] && !seen[r] {
				seen[r] = true
				live = append(live, r)
			}
		}
		if d, ok := in.Dest(); ok {
			written[d] = true
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i] < live[j] })
	return live
}

// selectLoopKill mechanizes §5.1: when the covered problem instructions
// execute several times per activation, find a PC that executes exactly
// once between consecutive instances — a point that post-dominates the
// iteration's exits and dominates the next instance. A PC that also
// executes once before the first instance (a back-edge target) is usable
// with the first-instance exemption.
func selectLoopKill(t *Trace, start, end int32, problem map[uint64]bool) (uint64, bool, bool) {
	var insts []int32
	for i := start; i < end; i++ {
		if problem[t.entries[i].pc] {
			insts = append(insts, i)
		}
	}
	if len(insts) < 2 {
		return 0, false, false
	}
	// Count occurrences of each PC strictly between consecutive instances.
	counts := make(map[uint64]int)
	for k := 0; k+1 < len(insts); k++ {
		seen := make(map[uint64]bool)
		for j := insts[k] + 1; j < insts[k+1]; j++ {
			pc := t.entries[j].pc
			if seen[pc] {
				delete(counts, pc) // more than once in an interval: unusable
				continue
			}
			seen[pc] = true
			if n, tracked := counts[pc]; !tracked && k == 0 {
				counts[pc] = 1
			} else if tracked && n == k {
				counts[pc] = n + 1
			}
		}
	}
	// A usable kill PC appeared exactly once in every interval.
	var best uint64
	bestPos := int32(1 << 30)
	for pc, n := range counts {
		if n != len(insts)-1 {
			continue
		}
		// Prefer the candidate closest after the first instance.
		for j := insts[0] + 1; j < insts[1]; j++ {
			if t.entries[j].pc == pc && j < bestPos {
				best, bestPos = pc, j
				break
			}
		}
	}
	if best == 0 {
		return 0, false, false
	}
	// If the PC also executes before the first instance, the first fetch
	// per activation must not kill.
	skip := false
	for j := start; j < insts[0]; j++ {
		if t.entries[j].pc == best {
			skip = true
			break
		}
	}
	return best, skip, true
}
