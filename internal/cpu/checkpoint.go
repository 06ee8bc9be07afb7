package cpu

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/slicehw"
)

// This file implements warm-state checkpointing: Quiesce drains the
// pipeline to an architecturally clean point, Checkpoint serializes the
// machine state that survives that point, and Restore rebuilds an
// equivalent core from a checkpoint. The harness uses the trio to simulate
// each warm region once and share it across every measurement that only
// differs in measurement-time configuration (see Config.WarmConfig).
//
// What a checkpoint holds (everything live at a quiesced point):
//   - the cycle counter and sequence-number cursor (absolute — nothing is
//     rebased, so time-stamped machine state like LRU clocks, icStallUntil,
//     and the memory-bus cursor stays directly comparable);
//   - the main thread's architectural state: PC, registers, branch/path
//     history, I-cache stall deadline, and every thread context's full
//     return-address stack (helper RAS contents persist across helper
//     reuse — Thread.reset does not clear them);
//   - predictor tables: YAGS, the cascaded indirect predictor, and the
//     fork-confidence table;
//   - the memory hierarchy: L1I/L1D/L2/PVB valid lines, the stream
//     prefetcher's stream table, the line-origin attribution map, and the
//     memory-bus cursor;
//   - the prediction correlator (flattened; see slicehw.CorrState);
//   - the memory image, as a copy-on-write page snapshot whose encoding
//     lists only the pages that differ from the workload's pristine image
//     (mem.Snapshot.Encode).
//
// What it deliberately omits:
//   - all stats counters (the harness resets them at the measurement
//     boundary anyway);
//   - in-flight pipeline state — none exists: Quiesce proves the windows,
//     fetch queues, write buffer, in-flight fills, and pending prefetch
//     arrivals empty before Checkpoint will serialize anything.

// Checkpoint is a serializable snapshot of warmed machine state taken at a
// quiesced point. Checkpoints are immutable once taken and safe to restore
// from concurrently.
type Checkpoint struct {
	Now uint64 // cycle counter at the quiesced point
	Seq uint64 // next dynamic-instruction sequence number

	MainHalted bool
	// WarmRetired is the main thread's retired-instruction count when the
	// checkpoint was taken (metadata for observability; Restore ignores it).
	WarmRetired uint64

	// Main-thread architectural and speculative front-end state.
	PC           uint64
	Regs         [isa.NumRegs]uint64
	Hist, Path   uint64
	ICStallUntil uint64
	// ThreadRAS holds every thread context's full return-address stack,
	// index-aligned with the core's contexts (main first).
	ThreadRAS []bpred.RASStackState

	// Predictors, as opaque self-describing sections: the spec identifies
	// the predictor (and must match the restoring config's choice), the
	// blob is its SaveState output. The codec and this struct know nothing
	// about any predictor's layout — a new predictor checkpoints without
	// touching either.
	Dir      PredState
	Indirect PredState
	// Conf is the fork-confidence table; nil when the core had no slice
	// hardware.
	Conf []uint8

	// Hier is the whole memory hierarchy: caches, PVB, stream prefetcher,
	// line origins and the memory-bus cursor.
	Hier cache.HierState

	// Corr is the flattened prediction correlator; nil when the core had no
	// slice hardware (or the checkpoint came from a functional warm, which
	// models no slices).
	Corr *slicehw.CorrState

	// Mem is the copy-on-write memory snapshot. A decoded checkpoint holds
	// it as an unresolved delta until Mem.Rebase resolves it.
	Mem *mem.Snapshot
}

// PredState is one predictor's checkpoint section: its canonical spec
// plus its opaque SaveState blob (which carries its own CRC trailer).
type PredState struct {
	Spec string
	Blob []byte
}

func capturePred(p bpred.Predictor) PredState {
	return PredState{Spec: p.Spec(), Blob: p.SaveState()}
}

// restorePred loads one predictor section into the core's constructed
// predictor, refusing a spec mismatch: a checkpoint warmed under one
// predictor must never leak into a run configured for another.
func restorePred(p bpred.Predictor, st PredState, kind string) error {
	if st.Spec != p.Spec() {
		return fmt.Errorf("cpu: restore: checkpoint %s predictor %q does not match configured %q",
			kind, st.Spec, p.Spec())
	}
	if err := p.LoadState(st.Blob); err != nil {
		return fmt.Errorf("cpu: restore: %w", err)
	}
	return nil
}

// quiesceGuard bounds the drain loop; a pipeline that cannot drain within
// this many cycles indicates a livelock bug, not a long-latency miss.
const quiesceGuard = 1 << 20

// Quiesce drains the machine to an architecturally clean point: fetch is
// suppressed while every in-flight instruction retires or squashes, helper
// contexts die and are reaped, the write buffer and prefetch arrivals
// drain, and every in-flight cache fill lands. On return the main thread
// is ready to fetch again (unless it halted) from its architectural PC,
// and the expired in-flight fill tracking has been pruned — a straight
// continuation and a Checkpoint/Restore round trip proceed from identical
// state.
func (c *Core) Quiesce() error {
	c.draining = true
	defer func() { c.draining = false }()
	limit := c.now + quiesceGuard
	for !c.drained() {
		if c.now >= limit {
			return fmt.Errorf("cpu: pipeline failed to drain within %d cycles", uint64(quiesceGuard))
		}
		// Squash recovery re-enables Fetching mid-cycle; force it off every
		// cycle so dead helpers are reaped and the main thread stays put
		// (fetchStage itself is gated by c.draining).
		for _, t := range c.threads {
			t.Fetching = false
		}
		c.stepCycle()
	}
	for _, t := range c.threads {
		t.Fetching = false
	}
	if err := c.hier.PruneFills(c.now); err != nil {
		return err
	}
	for _, p := range c.progs {
		p.main.Fetching = !p.halted
	}
	return nil
}

// drained reports whether nothing is in flight anywhere.
func (c *Core) drained() bool {
	for _, p := range c.progs {
		if p.main.rob.len() != 0 || p.main.fetchq.len() != 0 {
			return false
		}
	}
	for _, t := range c.threads {
		if !t.IsMain && t.Alive {
			return false
		}
	}
	return c.window == 0 && c.helperWindow == 0 && c.hier.Quiesced(c.now)
}

// Checkpoint quiesces the core and captures its state. The core remains
// usable afterwards (its memory turns copy-on-write); continuing to run it
// is exactly equivalent to restoring the checkpoint into a fresh core.
//
// Multi-programmed cores do not checkpoint: co-scheduled runs warm inline
// (the contention during warm-up is part of the scenario, and no two
// co-schedules share a warm prefix anyway).
func (c *Core) Checkpoint() (*Checkpoint, error) {
	if len(c.progs) > 1 {
		return nil, fmt.Errorf("cpu: checkpointing a %d-program core is not supported; multi-programmed runs warm inline", len(c.progs))
	}
	if err := c.Quiesce(); err != nil {
		return nil, err
	}
	p := c.progs[0]
	if p.mainStores.len() != 0 {
		return nil, fmt.Errorf("cpu: %d committed-store records survived the drain", p.mainStores.len())
	}
	ck := &Checkpoint{
		Now:          c.now,
		Seq:          c.seq,
		MainHalted:   p.halted,
		WarmRetired:  c.S.MainRetired,
		PC:           c.main.PC,
		Regs:         c.main.Regs,
		Hist:         c.main.Hist,
		Path:         c.main.Path,
		ICStallUntil: c.main.icStallUntil,
		Dir:          capturePred(c.dir),
		Indirect:     capturePred(c.indirect),
		Hier:         c.hier.State(),
		Mem:          p.mem.Snapshot(),
	}
	for _, t := range c.threads {
		ck.ThreadRAS = append(ck.ThreadRAS, t.RAS.StackState())
	}
	if p.conf != nil {
		ck.Conf = append([]uint8(nil), p.conf.table...)
	}
	if p.corr != nil {
		st, err := p.corr.State()
		if err != nil {
			return nil, err
		}
		ck.Corr = st
	}
	return ck, nil
}

// Restore builds a core equivalent to the one Checkpoint captured, under
// cfg. cfg may differ from the capture configuration only in
// measurement-only fields (see Config.WarmConfig) — structural differences
// surface as geometry errors. sliceTable must be the same table (same
// slices, same order) the captured core ran with; pass nil for a core
// without slice hardware.
func Restore(cfg Config, image *asm.Image, ck *Checkpoint, sliceTable *slicehw.Table) (*Core, error) {
	if !ck.Mem.Resolved() {
		return nil, fmt.Errorf("cpu: restore: checkpoint memory is an unresolved delta (rebase it onto its workload image)")
	}
	memory := mem.NewFromSnapshot(ck.Mem)
	// New validates its entry PC; a halted checkpoint's PC may legally sit
	// off-image (fetch past a HALT never resumes), so construct with a
	// known-good entry and install the real PC afterwards.
	progs := image.Programs()
	if len(progs) == 0 {
		return nil, fmt.Errorf("cpu: restore: empty image")
	}
	c, err := New(cfg, image, memory, progs[0].Base, sliceTable)
	if err != nil {
		return nil, err
	}
	if !ck.MainHalted {
		if _, ok := image.At(ck.PC); !ok {
			return nil, fmt.Errorf("cpu: restore: checkpoint PC %#x not in image", ck.PC)
		}
	}

	c.now = ck.Now
	c.seq = ck.Seq
	c.progs[0].halted = ck.MainHalted

	m := c.main
	m.PC = ck.PC
	m.Regs = ck.Regs
	m.Hist, m.Path = ck.Hist, ck.Path
	m.icStallUntil = ck.ICStallUntil
	m.Fetching = !ck.MainHalted

	if len(ck.ThreadRAS) != len(c.threads) {
		return nil, fmt.Errorf("cpu: restore: checkpoint has %d thread contexts, config has %d",
			len(ck.ThreadRAS), len(c.threads))
	}
	for i, t := range c.threads {
		if err := t.RAS.SetStackState(ck.ThreadRAS[i]); err != nil {
			return nil, err
		}
	}

	if err := restorePred(c.dir, ck.Dir, "direction"); err != nil {
		return nil, err
	}
	if err := restorePred(c.indirect, ck.Indirect, "indirect"); err != nil {
		return nil, err
	}
	if ck.Conf != nil {
		conf := c.progs[0].conf
		if conf == nil {
			return nil, fmt.Errorf("cpu: restore: checkpoint has a confidence table but core has no slice hardware")
		}
		if len(ck.Conf) != len(conf.table) {
			return nil, fmt.Errorf("cpu: restore: confidence table has %d entries, core has %d",
				len(ck.Conf), len(conf.table))
		}
		copy(conf.table, ck.Conf)
	}

	if err := c.hier.SetState(ck.Hier); err != nil {
		return nil, err
	}

	if ck.Corr != nil {
		corr := c.progs[0].corr
		if corr == nil {
			return nil, fmt.Errorf("cpu: restore: checkpoint has correlator state but core has no slice hardware")
		}
		if err := corr.SetState(ck.Corr, sliceTable); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// WarmConfig returns the canonical configuration under which cfg's warm
// region is simulated. Two configurations with equal WarmConfig
// fingerprints can share one warm checkpoint.
//
// Measurement-only fields — stripped here because the core reads them
// dynamically through c.Cfg and nothing latches them into warm state:
//   - Name: a display label.
//   - Perfect: consulted per fetched/issued/retired instruction
//     (predictCtrl, loadLatency, retireInst). Warm runs use the realistic
//     machine; perfect modes are limit studies applied to the measured
//     region only.
//
// Everything else is warm-relevant: structural sizes fix the state arrays
// (and are latched at New), latencies and policies shape every cache/
// predictor update during warm, SlicePredictionsOff changes which
// correlator state accumulates, and BPred/IndirectPred select which
// predictor's tables the warm region trains — so they stay in the key
// even where they are read dynamically.
func (c Config) WarmConfig() Config {
	w := c
	w.Name = ""
	w.Perfect = Perfect{}
	return w
}

// WarmFingerprint is the stable fingerprint of WarmConfig — the
// config-dependent part of a warm checkpoint's identity.
func (c Config) WarmFingerprint() string {
	return c.WarmConfig().Fingerprint()
}
