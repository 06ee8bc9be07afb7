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
// stream. The oracle holds that model privately, one per co-scheduled
// program (a cpu.Stepper over isa.Execute with its own register file and
// memory image, seeded from the program entry or from a checkpoint),
// executes one instruction per retirement of that program, and diffs
// every architecturally visible field. The first
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

// maxReports caps the divergences one oracle records, over all its
// programs; past a program's first the stream comparison is unreliable
// anyway (the models have split). Reports past the cap are only counted.
const maxReports = 8

// Options configures an Oracle.
type Options struct {
	// Workload and WarmKey label divergence reports so a failure is
	// replayable: the pair identifies the exact warmed machine state the
	// measured region started from.
	Workload string
	WarmKey  string
	// Every is the invariant-sweep period in cycles; 0 or less means
	// DefaultEvery.
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

// ProgSeed seeds one program slot's functional model. Mem must be the
// oracle's own copy of the program's initial memory — the model mutates
// it with every store — and Name labels that slot's divergence reports
// (typically the workload name; empty keeps Options.Workload).
type ProgSeed struct {
	Image *asm.Image
	Mem   *mem.Memory
	Entry uint64
	Name  string
}

// Oracle runs one functional model per program slot, one instruction per
// retirement, and diffs the core's committed stream against it.
// Retirements route to the retiring thread's program. Each program's
// architectural stream is program-order within its own main thread, so
// every model is exactly the single-program lockstep diff: contention
// between co-scheduled programs changes timing, never architecture. The
// invariant sweep is whole-core and paced by any program's retirements.
type Oracle struct {
	opt   Options
	progs []*model

	core      *cpu.Core
	every     uint64
	nextSweep uint64

	divs    []Divergence
	dropped int // divergences past maxReports
}

// model is one program's private functional model and its lockstep
// state, never aliased with the core's state.
type model struct {
	label  string // Divergence.Workload
	fm     *cpu.Stepper
	halted bool

	index uint64 // retirements of this program observed by the oracle
	base  uint64 // retirements that preceded the seed checkpoint

	// stopped ends this program's diff after its first stream
	// divergence: once the models split, every later comparison is noise.
	stopped bool
}

// New builds an oracle whose functional model starts at entry with zero
// registers against m. The memory must be the oracle's own copy — it is
// mutated by every store the model executes.
func New(image *asm.Image, m *mem.Memory, entry uint64, opt Options) *Oracle {
	return NewMulti([]ProgSeed{{Image: image, Mem: m, Entry: entry}}, opt)
}

// NewMulti builds one functional model per program slot, in spec order.
// The slot order must match the cpu.NewMulti spec order, since
// retirements are routed by program index. A named slot labels its
// reports name[pN].
func NewMulti(seeds []ProgSeed, opt Options) *Oracle {
	o := &Oracle{opt: opt, every: DefaultEvery}
	if opt.Every > 0 {
		o.every = uint64(opt.Every)
	}
	for i, s := range seeds {
		label := opt.Workload
		if s.Name != "" {
			label = fmt.Sprintf("%s[p%d]", s.Name, i)
		}
		o.progs = append(o.progs, &model{label: label, fm: cpu.NewStepper(s.Image, s.Mem, s.Entry)})
	}
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
	o := New(image, m, ck.PC, opt)
	p := o.progs[0]
	p.fm.SetRegs(&ck.Regs)
	p.halted, p.base = ck.MainHalted, ck.WarmRetired
	if !seeded {
		p.stopped = true
		o.report(p, nil, 0, "seed", "checkpoint memory is an unresolved delta; rebase it onto its workload image", nil)
	}
	return o
}

// Attach installs the oracle as the core's retire observer. The core
// must be the one whose streams match the oracle's seed states, program
// for program.
func (o *Oracle) Attach(c *cpu.Core) {
	if n := c.NumPrograms(); n != len(o.progs) {
		panic(fmt.Sprintf("oracle: %d functional models attached to a %d-program core", len(o.progs), n))
	}
	o.core = c
	o.nextSweep = c.Now() + o.every
	c.RetireObserver = o.OnRetire
}

// OnRetire receives one retired main-thread instruction, runs the
// per-N-cycle invariant sweep, steps the retiring program's functional
// model, and diffs. It is installed by Attach but exported so tests can
// wrap it to inject faults.
func (o *Oracle) OnRetire(di *cpu.DynInst) {
	p := o.progs[di.Thread.ProgIndex()]
	if o.core != nil && o.core.Now() >= o.nextSweep {
		o.nextSweep = o.core.Now() + o.every
		if err := o.core.CheckInvariants(); err != nil {
			o.report(p, di, p.index, "invariant", err.Error(), nil)
		}
	}

	idx := p.index
	p.index++
	if p.stopped {
		return
	}

	if p.halted {
		o.streamDiverge(p, di, idx, "halt",
			fmt.Sprintf("core retired pc=%#x after the functional model halted", di.PC), nil)
		return
	}
	pc := p.fm.PC()
	if di.PC != pc {
		o.streamDiverge(p, di, idx, "pc",
			fmt.Sprintf("core retired pc=%#x, functional model expects pc=%#x", di.PC, pc), nil)
		return
	}

	var out isa.Outcome
	in, err := p.fm.Step(&out)
	if err != nil {
		o.streamDiverge(p, di, idx, "off-image",
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
		o.streamDiverge(p, di, idx, kind, fmt.Sprintf("retired %v disagrees with the functional model", in), delta)
		return
	}

	if want.Halt {
		p.halted = true
	}
}

// streamDiverge records a lockstep mismatch and ends p's diff.
func (o *Oracle) streamDiverge(p *model, di *cpu.DynInst, idx uint64, kind, detail string, delta []string) {
	p.stopped = true
	o.report(p, di, idx, kind, detail, delta)
}

// report records one divergence of program p at its retirement idx, or
// only counts it once the report list holds maxReports.
func (o *Oracle) report(p *model, di *cpu.DynInst, idx uint64, kind, detail string, delta []string) {
	if len(o.divs) >= maxReports {
		o.dropped++
		return
	}
	d := Divergence{
		Workload: p.label,
		WarmKey:  o.opt.WarmKey,
		Index:    idx,
		AbsIndex: p.base + idx,
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

// Retired returns how many retirements the oracle has observed, summed
// over the programs.
func (o *Oracle) Retired() uint64 {
	var n uint64
	for _, p := range o.progs {
		n += p.index
	}
	return n
}

// Mem exposes program i's private model memory (final-state comparisons
// in tests; do not write to it).
func (o *Oracle) Mem(i int) *mem.Memory { return o.progs[i].fm.Mem() }

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

// VerifyFinal compares each program's drained register file against its
// functional model; the committed store streams were already checked
// retirement by retirement. Only valid once the core is fully drained —
// mid-run, Thread.Regs is speculative.
func (o *Oracle) VerifyFinal(c *cpu.Core) error {
	if err := o.Err(); err != nil {
		return err
	}
	if !c.Done() {
		return fmt.Errorf("oracle: VerifyFinal on a core that is not drained")
	}
	for i, p := range o.progs {
		var delta []string
		for r := 1; r < isa.NumRegs; r++ {
			if cv, ov := c.ProgMain(i).Regs[r], p.fm.Reg(isa.Reg(r)); cv != ov {
				delta = append(delta, fmt.Sprintf("r%d: core=%#x model=%#x", r, cv, ov))
			}
		}
		if len(delta) > 0 {
			o.report(p, nil, p.index, "final-regs", "architectural register file differs after drain", delta)
		}
	}
	return o.Err()
}
