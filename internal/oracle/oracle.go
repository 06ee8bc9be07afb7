// Package oracle implements the always-on differential oracle: a
// functional reference model stepped in lockstep with the out-of-order
// core's retirement stream, plus a per-N-cycle structural invariant
// sweep.
//
// The core executes at fetch against speculative state, so by the time an
// instruction retires its Outcome is frozen: the register it wrote and
// the value, the store it performed, the direction and target it
// resolved. Fetch is program-order within the main thread and every
// wrong-path effect is undone before correct-path re-fetch, so the
// retired outcome of each main-thread instruction must equal what a
// plain architectural interpreter computes at the same point in the
// stream. The oracle holds that model privately (a cpu.Stepper over
// isa.Execute with its own register file and memory image, seeded from
// the program entry or from a checkpoint), executes one instruction per
// retirement, and diffs every architecturally visible field. The first
// mismatch is a real bug in one of the two models — there is no
// tolerance window.
//
// Two things the oracle deliberately does NOT do:
//
//   - It never reads the core's Thread.Regs mid-run. Those are
//     speculative and run ahead of retirement; diffing them against the
//     functional register file would flag every in-flight instruction.
//     Per-retirement outcomes are the architectural stream. A whole-file
//     register compare is only valid once the core is fully drained —
//     that is VerifyFinal.
//
//   - It never models Perfect.* or slice predictions. Those knobs change
//     timing and measurement, never architectural results, which is
//     exactly why the oracle can stay attached under every configuration.
package oracle

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/asm"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/stats"
)

// DefaultEvery is the default invariant-sweep period in cycles.
const DefaultEvery = 8192

// maxReports caps recorded divergences; past the first the stream
// comparison is unreliable anyway (the models have split). Reports past
// the cap are only counted.
const maxReports = 8

// Options configures an Oracle.
type Options struct {
	// Workload and WarmKey label divergence reports so a failure is
	// replayable: the pair identifies the exact warmed machine state the
	// measured region started from.
	Workload string
	WarmKey  string
	// Every is the invariant-sweep period in cycles; 0 means
	// DefaultEvery, negative disables the sweep (lockstep diff only).
	Every int64
}

// Divergence is one replayable report of the core disagreeing with the
// functional model (or violating a structural invariant).
type Divergence struct {
	Workload string `json:"workload,omitempty"`
	WarmKey  string `json:"warm_key,omitempty"`
	// Index is the retired-instruction index within the observed region
	// (0 = first retirement seen by this oracle); AbsIndex adds the
	// warm-up instructions that preceded the checkpoint.
	Index    uint64 `json:"index"`
	AbsIndex uint64 `json:"abs_index"`
	Cycle    uint64 `json:"cycle"`
	PC       uint64 `json:"pc"`
	// Kind is one of "seed", "pc", "reg", "store", "ctrl", "fault", "halt",
	// "off-image", "invariant", "final-regs".
	Kind   string `json:"kind"`
	Detail string `json:"detail"`
	// Delta lists the disagreeing machine-state fields, core vs. model.
	Delta []string `json:"delta,omitempty"`
}

func (d Divergence) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "oracle: %s divergence at retired #%d (abs #%d, cycle %d, pc %#x): %s",
		d.Kind, d.Index, d.AbsIndex, d.Cycle, d.PC, d.Detail)
	if d.Workload != "" {
		fmt.Fprintf(&b, "\n  workload=%s warm_key=%q", d.Workload, d.WarmKey)
	}
	for _, l := range d.Delta {
		fmt.Fprintf(&b, "\n  %s", l)
	}
	return b.String()
}

// DivergenceError carries every recorded divergence; harness callers
// unwrap it to write report files.
type DivergenceError struct {
	Divs []Divergence
	// Dropped counts the divergences found past the report cap, which
	// are not in Divs.
	Dropped int
}

func (e *DivergenceError) Error() string {
	if len(e.Divs) == 0 {
		return "oracle: divergence"
	}
	s := e.Divs[0].String()
	if more := len(e.Divs) - 1 + e.Dropped; more > 0 {
		s += fmt.Sprintf("\n  (+%d more divergences)", more)
	}
	return s
}

// WriteReport writes the recorded divergences and the count dropped past
// the report cap as one indented JSON object.
func (e *DivergenceError) WriteReport() []byte {
	b, err := json.MarshalIndent(struct {
		Divergences []Divergence `json:"divergences"`
		Dropped     int          `json:"dropped"`
	}{e.Divs, e.Dropped}, "", "  ")
	if err != nil {
		return []byte(err.Error())
	}
	return append(b, '\n')
}

// Oracle runs the functional model one instruction per retirement and
// diffs the core's committed stream against it.
type Oracle struct {
	opt Options

	// Private functional model, never aliased with the core's state.
	fm     *cpu.Stepper
	halted bool

	index uint64 // retirements observed by this oracle
	base  uint64 // retirements that preceded the seed checkpoint

	// stopped ends the lockstep diff after the first stream divergence:
	// once the models split, every later comparison is noise.
	stopped bool

	core      *cpu.Core
	every     uint64
	nextSweep uint64

	divs    []Divergence
	dropped int // divergences past maxReports
}

// New builds an oracle whose functional model starts at entry with zero
// registers against m. The memory must be the oracle's own copy — it is
// mutated by every store the model executes.
func New(image *asm.Image, m *mem.Memory, entry uint64, opt Options) *Oracle {
	o := &Oracle{
		opt: opt,
		fm:  cpu.NewStepper(image, m, entry),
	}
	o.init()
	return o
}

// FromCheckpoint builds an oracle seeded from a quiesced checkpoint: at
// the quiesce point the pipeline is drained, so ck's registers, PC, and
// memory snapshot are exactly architectural. This makes checkpointed and
// functionally warmed runs validatable without replaying the warm-up.
//
// A checkpoint whose memory is an unresolved delta (decoded but never
// rebased onto its workload image) cannot seed the model: the oracle
// records a "seed" divergence and checks nothing, so Err fails instead of
// lockstepping against a partial image.
func FromCheckpoint(image *asm.Image, ck *cpu.Checkpoint, opt Options) *Oracle {
	seeded := ck.Mem.Resolved()
	m := mem.New()
	if seeded {
		m = mem.NewFromSnapshot(ck.Mem)
	}
	o := &Oracle{
		opt:    opt,
		fm:     cpu.NewStepper(image, m, ck.PC),
		halted: ck.MainHalted,
		base:   ck.WarmRetired,
	}
	o.fm.SetRegs(&ck.Regs)
	o.init()
	if !seeded {
		o.stopped = true
		o.reportAt(nil, 0, "seed", "checkpoint memory is an unresolved delta; rebase it onto its workload image", nil)
	}
	return o
}

func (o *Oracle) init() {
	switch {
	case o.opt.Every == 0:
		o.every = DefaultEvery
	case o.opt.Every > 0:
		o.every = uint64(o.opt.Every)
	}
}

// Attach installs the oracle as the core's retire observer. The core
// must be the one whose stream matches the oracle's seed state.
func (o *Oracle) Attach(c *cpu.Core) {
	o.core = c
	if o.every > 0 {
		o.nextSweep = c.Now() + o.every
	}
	c.RetireObserver = o.OnRetire
}

// OnRetire receives one retired main-thread instruction, runs the
// per-N-cycle invariant sweep, steps the functional model, and diffs.
// It is installed by Attach but exported so tests can wrap it to inject
// faults.
func (o *Oracle) OnRetire(di *cpu.DynInst) {
	if o.core != nil && o.every > 0 && o.core.Now() >= o.nextSweep {
		o.nextSweep = o.core.Now() + o.every
		if err := o.core.CheckInvariants(); err != nil {
			o.report(di, "invariant", err.Error(), nil)
		}
	}

	idx := o.index
	o.index++
	if o.stopped {
		return
	}

	if o.halted {
		o.streamDiverge(di, idx, "halt",
			fmt.Sprintf("core retired pc=%#x after the functional model halted", di.PC), nil)
		return
	}
	pc := o.fm.PC()
	if di.PC != pc {
		o.streamDiverge(di, idx, "pc",
			fmt.Sprintf("core retired pc=%#x, functional model expects pc=%#x", di.PC, pc), nil)
		return
	}

	var out isa.Outcome
	in, err := o.fm.Step(&out)
	if err != nil {
		o.streamDiverge(di, idx, "off-image",
			fmt.Sprintf("functional model fell off the image at %#x", pc), nil)
		return
	}
	got, want := &di.Out, &out

	var delta []string
	kind := ""
	diff := func(k, field string, gotV, wantV interface{}) {
		if kind == "" {
			kind = k
		}
		delta = append(delta, fmt.Sprintf("%-9s core=%v model=%v", field+":", gotV, wantV))
	}
	if got.Fault != want.Fault {
		diff("fault", "fault", got.Fault, want.Fault)
	}
	if got.WroteReg != want.WroteReg {
		diff("reg", "wroteReg", got.WroteReg, want.WroteReg)
	} else if want.WroteReg {
		if got.Rd != want.Rd {
			diff("reg", "rd", got.Rd, want.Rd)
		}
		if got.Value != want.Value {
			diff("reg", "value", fmt.Sprintf("%#x", got.Value), fmt.Sprintf("%#x", want.Value))
		}
	}
	if got.IsStore != want.IsStore {
		diff("store", "isStore", got.IsStore, want.IsStore)
	} else if want.IsStore && !want.Fault {
		if got.Addr != want.Addr {
			diff("store", "addr", fmt.Sprintf("%#x", got.Addr), fmt.Sprintf("%#x", want.Addr))
		}
		if got.Size != want.Size {
			diff("store", "size", got.Size, want.Size)
		}
		if got.StoreVal != want.StoreVal {
			diff("store", "storeVal", fmt.Sprintf("%#x", got.StoreVal), fmt.Sprintf("%#x", want.StoreVal))
		}
	}
	if got.IsCtrl != want.IsCtrl {
		diff("ctrl", "isCtrl", got.IsCtrl, want.IsCtrl)
	} else if want.IsCtrl {
		if got.Taken != want.Taken {
			diff("ctrl", "taken", got.Taken, want.Taken)
		}
		if want.Taken && got.Target != want.Target {
			diff("ctrl", "target", fmt.Sprintf("%#x", got.Target), fmt.Sprintf("%#x", want.Target))
		}
	}
	if got.Halt != want.Halt {
		diff("halt", "halt", got.Halt, want.Halt)
	}

	if kind != "" {
		o.streamDiverge(di, idx, kind, fmt.Sprintf("retired %v disagrees with the functional model", in), delta)
		return
	}

	if want.Halt {
		o.halted = true
	}
}

// streamDiverge records a lockstep mismatch and ends the diff.
func (o *Oracle) streamDiverge(di *cpu.DynInst, idx uint64, kind, detail string, delta []string) {
	o.stopped = true
	o.reportAt(di, idx, kind, detail, delta)
}

func (o *Oracle) report(di *cpu.DynInst, kind, detail string, delta []string) {
	o.reportAt(di, o.index, kind, detail, delta)
}

func (o *Oracle) reportAt(di *cpu.DynInst, idx uint64, kind, detail string, delta []string) {
	if len(o.divs) >= maxReports {
		o.dropped++
		return
	}
	d := Divergence{
		Workload: o.opt.Workload,
		WarmKey:  o.opt.WarmKey,
		Index:    idx,
		AbsIndex: o.base + idx,
		Kind:     kind,
		Detail:   detail,
		Delta:    delta,
	}
	if di != nil {
		d.PC = di.PC
	}
	if o.core != nil {
		d.Cycle = o.core.Now()
		if tr := o.core.Tracer(); tr != nil {
			ev := stats.EvOracleDiverge
			if kind == "invariant" {
				ev = stats.EvOracleInvariant
			}
			tr.Emit(stats.Event{Cycle: d.Cycle, Kind: ev, PC: d.PC, N: idx})
		}
	}
	o.divs = append(o.divs, d)
}

// Retired returns how many retirements the oracle has observed.
func (o *Oracle) Retired() uint64 { return o.index }

// Mem exposes the functional model's private memory image (final-state
// comparisons in tests; do not write to it).
func (o *Oracle) Mem() *mem.Memory { return o.fm.Mem() }

// Divergences returns every recorded report.
func (o *Oracle) Divergences() []Divergence { return o.divs }

// Err returns nil when the run was clean, else a *DivergenceError
// carrying every recorded report and the count of those past the cap.
func (o *Oracle) Err() error {
	if len(o.divs) == 0 {
		return nil
	}
	return &DivergenceError{Divs: o.divs, Dropped: o.dropped}
}

// VerifyFinal compares the core's whole architectural state against the
// functional model: the register file, and (cheaply, via the committed
// store stream already checked) the halted/retired status. Only valid
// once the core is fully drained — mid-run, Thread.Regs is speculative.
func (o *Oracle) VerifyFinal(c *cpu.Core) error {
	if err := o.Err(); err != nil {
		return err
	}
	if !c.Done() {
		return fmt.Errorf("oracle: VerifyFinal on a core that is not drained")
	}
	o.verifyFinalRegs(c.Main())
	return o.Err()
}

// verifyFinalRegs diffs one drained main thread's register file against
// the functional model, recording a "final-regs" divergence on mismatch.
func (o *Oracle) verifyFinalRegs(t *cpu.Thread) {
	var delta []string
	for r := 1; r < isa.NumRegs; r++ {
		if cv, ov := t.Regs[r], o.fm.Reg(isa.Reg(r)); cv != ov {
			delta = append(delta, fmt.Sprintf("r%d: core=%#x model=%#x", r, cv, ov))
		}
	}
	if len(delta) > 0 {
		o.reportAt(nil, o.index, "final-regs", "architectural register file differs after drain", delta)
	}
}

// SpotCheckRestore validates Checkpoint/Restore round-trip equivalence
// on a live core: checkpoint it (which quiesces — this perturbs timing,
// so it is a test-only probe, not part of the per-N-cycle sweep),
// restore into a fresh core, and require the restored machine to
// checkpoint back to byte-identical state.
func SpotCheckRestore(c *cpu.Core) error {
	ck, err := c.Checkpoint()
	if err != nil {
		return fmt.Errorf("oracle: restore spot check: %w", err)
	}
	r, err := cpu.Restore(c.Config(), c.Image(), ck, c.SliceTable())
	if err != nil {
		return fmt.Errorf("oracle: restore spot check: %w", err)
	}
	ck2, err := r.Checkpoint()
	if err != nil {
		return fmt.Errorf("oracle: restore spot check: re-checkpoint: %w", err)
	}
	// WarmRetired is observability metadata (the retired count of the run
	// that built the checkpoint); Restore documents that it ignores it, and
	// the restored core's counters start at zero. Everything else must
	// round-trip exactly.
	ck2.WarmRetired = ck.WarmRetired
	a, b := ck.EncodeBinary(), ck2.EncodeBinary()
	if len(a) != len(b) {
		return fmt.Errorf("oracle: restore spot check: re-encoded checkpoint is %d bytes, original %d", len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("oracle: restore spot check: checkpoints differ at byte %d", i)
		}
	}
	return nil
}
