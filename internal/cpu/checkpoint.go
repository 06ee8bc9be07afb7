package cpu

import (
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/asm"
	"repro/internal/bpred"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/slicehw"
	"repro/internal/wire"
)

// This file implements warm-state checkpointing: Quiesce drains the
// pipeline to an architecturally clean point, Checkpoint captures the
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
//     history and I-cache stall deadline;
//   - the components' warm state, as bytes each component writes and
//     reads itself (Components): every thread context's full
//     return-address stack (helper RAS contents persist across helper
//     reuse — Thread.reset does not clear them), the direction and
//     indirect predictors, the fork-confidence table, the memory
//     hierarchy and the prediction correlator;
//   - the memory image, as a copy-on-write page snapshot whose encoding
//     lists only the pages that differ from the workload's pristine image
//     (mem.Snapshot.Encode).
//
// What it deliberately omits:
//   - all stats counters (the harness resets them at the measurement
//     boundary anyway);
//   - in-flight pipeline state — none exists: Quiesce proves the windows,
//     fetch queues, write buffer, in-flight fills, and pending prefetch
//     arrivals empty before Checkpoint will save anything.
//
// The components are checked only where they are read: Restore loads
// each one straight from the bytes into the new core, and every Load
// validates what it reads (geometry, index ranges, ordering, CRCs), so a
// checkpoint from the disk store is trusted no further than a restore.

// Checkpoint is a snapshot of warmed machine state taken at a quiesced
// point. Checkpoints are immutable once taken and safe to restore from
// concurrently.
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

	// Components is the components' warm state in saveComponents' order:
	// the return-address stacks, the predictor sections, the confidence
	// table, the hierarchy and the correlator. Only Restore reads it.
	Components []byte

	// Mem is the copy-on-write memory snapshot. A decoded checkpoint holds
	// it as an unresolved delta until Mem.Rebase resolves it.
	Mem *mem.Snapshot
}

// saveComponents writes every component's warm state: the count of thread
// contexts and each one's return-address stack (main first), the
// direction and indirect predictor sections, the fork-confidence table
// and the memory hierarchy, then the correlator. The confidence table and
// the correlator each sit behind a presence flag, clear when the core has
// no slice hardware.
func (c *Core) saveComponents(w *wire.Writer) error {
	p := c.progs[0]
	w.U64(uint64(len(c.threads)))
	for _, t := range c.threads {
		t.RAS.Save(w)
	}
	savePred(w, c.dir)
	savePred(w, c.indirect)
	w.Bool(p.conf != nil)
	if p.conf != nil {
		w.Blob(p.conf.table)
	}
	c.hier.Save(w)
	w.Bool(p.corr != nil)
	if p.corr == nil {
		return nil
	}
	return p.corr.Save(w)
}

// loadComponents reads what saveComponents wrote into the core's
// components; the first error wins and trailing bytes are an error. A
// checkpoint without a confidence table or correlator leaves a core's
// slice hardware cold; one with them refuses a core without it.
func (c *Core) loadComponents(r *wire.Reader, sliceTable *slicehw.Table) error {
	p := c.progs[0]
	if r.Expect(uint64(len(c.threads)), "thread contexts"); r.Err() != nil {
		return r.Err()
	}
	for _, t := range c.threads {
		if err := t.RAS.Load(r); err != nil {
			return err
		}
	}
	if err := loadPred(r, c.dir, "direction"); err != nil {
		return err
	}
	if err := loadPred(r, c.indirect, "indirect"); err != nil {
		return err
	}
	if r.Bool() {
		table := r.Raw(r.Count(1))
		switch {
		case r.Err() != nil:
			return r.Err()
		case p.conf == nil:
			return errors.New("checkpoint has a confidence table but core has no slice hardware")
		case len(table) != len(p.conf.table):
			return fmt.Errorf("confidence table has %d entries, core has %d", len(table), len(p.conf.table))
		}
		copy(p.conf.table, table)
	}
	if err := c.hier.Load(r); err != nil {
		return fmt.Errorf("hierarchy: %w", err)
	}
	if r.Bool() {
		if p.corr == nil {
			return errors.New("checkpoint has correlator state but core has no slice hardware")
		}
		if err := p.corr.Load(r, sliceTable); err != nil {
			return fmt.Errorf("correlator: %w", err)
		}
	}
	return r.Done()
}

// savePred writes one length-prefixed, CRC-guarded predictor section: the
// predictor's spec string and its opaque SaveState blob. The checkpoint
// knows no predictor layout — any registered predictor's state travels
// through here unchanged — and the section CRC (covering spec + blob)
// catches a flipped byte even before the blob's own trailer does.
func savePred(w *wire.Writer, p bpred.Predictor) {
	var body wire.Writer
	body.Blob([]byte(p.Spec()))
	body.Blob(p.SaveState())
	b := body.Bytes()
	w.U64(uint64(len(b)))
	w.U32(crc32.ChecksumIEEE(b))
	w.Raw(b)
}

// loadPred reads one predictor section into the core's constructed
// predictor. Beyond the section CRC and shape it refuses a spec mismatch
// — a checkpoint warmed under one predictor must never leak into a run
// configured for another — and LoadState checks the blob itself.
func loadPred(r *wire.Reader, p bpred.Predictor, kind string) error {
	n := r.Count(1)
	want := r.U32()
	body := r.Raw(n)
	if r.Err() != nil {
		return r.Err()
	}
	if crc32.ChecksumIEEE(body) != want {
		return fmt.Errorf("%s predictor section CRC mismatch", kind)
	}
	br := wire.NewReader(body)
	spec, blob := br.Raw(br.Count(1)), br.Raw(br.Count(1))
	if br.Done() != nil {
		return fmt.Errorf("malformed %s predictor section", kind)
	}
	if string(spec) != p.Spec() {
		return fmt.Errorf("checkpoint %s predictor %q does not match configured %q", kind, spec, p.Spec())
	}
	return p.LoadState(blob)
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
	var w wire.Writer
	if err := c.saveComponents(&w); err != nil {
		return nil, err
	}
	return &Checkpoint{
		Now:          c.now,
		Seq:          c.seq,
		MainHalted:   p.halted,
		WarmRetired:  c.S.MainRetired,
		PC:           c.main.PC,
		Regs:         c.main.Regs,
		Hist:         c.main.Hist,
		Path:         c.main.Path,
		ICStallUntil: c.main.icStallUntil,
		Components:   w.Bytes(),
		Mem:          p.mem.Snapshot(),
	}, nil
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

	if err := c.loadComponents(wire.NewReader(ck.Components), sliceTable); err != nil {
		return nil, fmt.Errorf("cpu: restore: %w", err)
	}
	return c, nil
}

// WarmConfig returns the canonical configuration under which cfg's warm
// region is simulated. Two configurations with equal WarmConfig
// fingerprints can share one warm checkpoint.
//
// Measurement-only fields — stripped here because nothing latches them
// into warm state:
//   - Name: a display label.
//   - Perfect: resolved into the program table when a core is built and
//     consulted per fetched/issued/retired instruction (predictCtrl,
//     loadLatency, retireInst). Restore builds its core under the
//     measurement config. Warm runs use the realistic machine; perfect
//     modes are limit studies applied to the measured region only.
//
// Everything else is warm-relevant: structural sizes fix the state arrays
// (and are latched at New), latencies and policies shape every cache/
// predictor update during warm, SlicePredictionsOff changes which
// correlator state accumulates, and BPred selects which direction
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
