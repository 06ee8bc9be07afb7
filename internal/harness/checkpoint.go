package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/cpu"
	"repro/internal/slicehw"
	"repro/internal/wire"
	"repro/internal/workloads"
)

// This file implements shared warm prefixes: every measurement region is
// preceded by a warm region whose simulation depends only on the workload,
// the slice mode, the warm length, and the warm-relevant configuration
// fields (cpu.Config.WarmConfig documents the split). The Checkpointer
// simulates each distinct warm prefix once, captures the machine at a
// quiesced point (cpu.Checkpoint), and restores it into every measurement
// that shares the prefix — across configs, across engine fan-out, and (with
// Dir set) across process invocations via an on-disk store.

// WarmMode selects how warm regions are simulated.
type WarmMode string

const (
	// WarmDetailed runs the warm region on the detailed out-of-order core.
	// Restoring a detailed checkpoint and measuring is behavior-identical
	// to warming and measuring straight through.
	WarmDetailed WarmMode = "detailed"
	// WarmFunctional fast-forwards the warm region on the functional
	// model (cpu.Stepper) plus cache/predictor touch-warming
	// (cpu.FunctionalWarm). Much faster, but only statistically close to
	// detailed warm — see DESIGN.md for the documented tolerance.
	WarmFunctional WarmMode = "functional"
)

// ParseWarmMode parses a -warm flag value.
func ParseWarmMode(s string) (WarmMode, error) {
	switch WarmMode(s) {
	case "", WarmDetailed:
		return WarmDetailed, nil
	case WarmFunctional:
		return WarmFunctional, nil
	}
	return "", fmt.Errorf("unknown warm mode %q (want %q or %q)",
		s, WarmDetailed, WarmFunctional)
}

// WarmKeyFor is the identity of one shareable warm prefix. Configurations
// that differ only in measurement-only fields map to the same key and
// share one checkpoint.
func WarmKeyFor(workload string, withSlices bool, warm uint64, mode WarmMode, cfg cpu.Config) string {
	return fmt.Sprintf("%s|slices=%t|warm=%d|mode=%s|%s",
		workload, withSlices, warm, mode, cfg.WarmFingerprint())
}

// WarmSource says where a warm checkpoint came from.
type WarmSource string

const (
	WarmFromMemo WarmSource = "memo" // in-memory cache hit
	WarmFromDisk WarmSource = "disk" // loaded from the on-disk store
	WarmFromSim  WarmSource = "sim"  // simulated this call
)

// CheckpointStats aggregates warm-checkpoint observability counters.
type CheckpointStats struct {
	// WarmHits counts warm requests served without simulating (from the
	// in-memory cache or the on-disk store); WarmMisses counts warm regions
	// actually simulated.
	WarmHits, WarmMisses uint64
	// Restores counts cores rebuilt from a checkpoint to measure (the
	// validation restore of a disk-loaded entry is not one).
	Restores uint64
	// DiskLoads/DiskStores count on-disk store reads/writes that succeeded;
	// DiskBytes is the total bytes moved in either direction.
	DiskLoads, DiskStores uint64
	DiskBytes             uint64
}

// Checkpointer is a two-level warm-checkpoint cache: an in-memory map for
// an engine's fan-out (and anything else in-process — it is safe for
// concurrent use and shareable between engines), plus an optional on-disk
// store so repeated process invocations skip warm-up entirely. The zero
// value is not usable; call NewCheckpointer.
type Checkpointer struct {
	// Dir, when non-empty, enables the on-disk store. Corrupt or stale
	// entries are ignored with a warning and rebuilt.
	Dir string
	// Mode selects detailed (default, behavior-identical) or functional
	// (fast, approximate) warm-up.
	Mode WarmMode

	memo flight[*cpu.Checkpoint] // WarmKey → checkpoint

	mu sync.Mutex // guards st
	st CheckpointStats
}

// NewCheckpointer builds a checkpointer. dir == "" disables the disk
// store; mode == "" means WarmDetailed.
func NewCheckpointer(dir string, mode WarmMode) *Checkpointer {
	if mode == "" {
		mode = WarmDetailed
	}
	return &Checkpointer{Dir: dir, Mode: mode}
}

// Stats returns a snapshot of the observability counters.
func (cp *Checkpointer) Stats() CheckpointStats {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return cp.st
}

// Warm returns the checkpoint for one warm prefix, simulating it only if
// neither cache level has it. Safe for concurrent use; concurrent requests
// for the same key simulate once. Single-flight is per Checkpointer:
// separate Checkpointers (or processes) sharing Dir may each build the
// same key, but atomic publication means a reader only ever sees a whole
// entry.
func (cp *Checkpointer) Warm(w *workloads.Workload, cfg cpu.Config, withSlices bool, warm uint64) (*cpu.Checkpoint, WarmSource, error) {
	key := WarmKeyFor(w.Name, withSlices, warm, cp.Mode, cfg)
	var src WarmSource
	ck, hit, err := cp.memo.do(key, func() (ck *cpu.Checkpoint, err error) {
		ck, src, err = cp.resolve(w, cfg, withSlices, warm, key)
		return ck, err
	})
	if hit {
		cp.mu.Lock()
		cp.st.WarmHits++
		cp.mu.Unlock()
		return ck, WarmFromMemo, err
	}
	return ck, src, err
}

// resolve serves one warm prefix from the on-disk store, or simulates it
// and persists the result. Warm calls it once per key.
func (cp *Checkpointer) resolve(w *workloads.Workload, cfg cpu.Config, withSlices bool, warm uint64, key string) (*cpu.Checkpoint, WarmSource, error) {
	if ck, n := cp.diskLoad(key, w, cfg, withSlices); ck != nil {
		cp.mu.Lock()
		cp.st.WarmHits++
		cp.st.DiskLoads++
		cp.st.DiskBytes += uint64(n)
		cp.mu.Unlock()
		return ck, WarmFromDisk, nil
	}
	ck, persist, err := cp.build(w, cfg, withSlices, warm)
	cp.mu.Lock()
	cp.st.WarmMisses++
	cp.mu.Unlock()
	if err == nil && persist {
		if n := cp.diskStore(key, ck); n > 0 {
			cp.mu.Lock()
			cp.st.DiskStores++
			cp.st.DiskBytes += uint64(n)
			cp.mu.Unlock()
		}
	}
	return ck, WarmFromSim, err
}

// build simulates one warm prefix and checkpoints the quiesced machine.
// persist reports whether the checkpoint is safe to write to the on-disk
// store: a warm region truncated by the MaxCycles guard produces a
// checkpoint of the wrong machine state (fewer instructions warmed than the
// key claims), and persisting it would poison every later run sharing the
// prefix — so it is used for this process only, with a warning.
func (cp *Checkpointer) build(w *workloads.Workload, cfg cpu.Config, withSlices bool, warm uint64) (ck *cpu.Checkpoint, persist bool, err error) {
	switch cp.Mode {
	case WarmFunctional:
		// The functional path models no slices; the restored measurement
		// core starts with a cold correlator and confidence table, which
		// is part of the documented accuracy gap.
		ck, err = cpu.FunctionalWarm(cfg, w.Image, w.NewMemory(), w.Entry, warm)
		return ck, err == nil, err
	}
	var table *slicehw.Table
	if withSlices {
		table = w.SliceTable()
	}
	core, err := cpu.New(cfg.WarmConfig(), w.Image, w.NewMemory(), w.Entry, table)
	if err != nil {
		return nil, false, err
	}
	core.Run(warm)
	if core.S.CycleGuardHits > 0 {
		warnf("%s warm-up hit the MaxCycles guard after %d retired instructions (wanted %d) — checkpoint not persisted",
			w.Name, core.S.MainRetired, warm)
		ck, err = core.Checkpoint()
		return ck, false, err
	}
	ck, err = core.Checkpoint()
	return ck, err == nil, err
}

// --- on-disk store ---
//
// File layout (little-endian):
//
//	magic   [8]byte  "SPECSLCK"
//	version u32      ckptSchemaVersion
//	keyLen  u32
//	key     [keyLen]byte   the WarmKey, stored to reject hash collisions
//	                       and stale files whose key semantics changed
//	crc     u32      IEEE CRC32 of payload
//	payLen  u64
//	payload [payLen]byte   cpu.Checkpoint.EncodeBinary
//
// Loads verify magic, version, key, and CRC before decoding, and restore
// the decoded checkpoint once under the warm configuration before using
// it, so every component section passes its own Load checks; any failure
// (bit rot, a checkpoint from an older schema, a colliding file name)
// produces one warning and falls back to simulating the warm region.

const ckptMagic = "SPECSLCK"

// ckptSchemaVersion versions the container *and* the payload encoding.
// Bump it whenever cpu.Checkpoint or its binary codec changes shape, so
// stale caches from older builds are rebuilt instead of misdecoded. Bump
// it too when a machine constant in internal/cpu/config.go changes: those
// constants are not part of Config.Fingerprint, so the warm keys (and the
// store's file names) stay the same and only the version turns a stale
// store away.
//
// v2: the hand-coded YAGS/cascaded predictor tables were replaced by
// opaque self-describing predictor sections (spec + SaveState blob).
// v3: memory is a delta over the workload's pristine image, named by its
// SHA-256, and each cache level lists only its valid lines.
// v4: line origins are derived from the L1D and PVB lines (no stale
// entries), and the PVB, a one-set cache, fills its first free slot.
// v5: the component sections (return-address stacks, predictors,
// confidence table, hierarchy, correlator) sit behind one u64 length, so
// decoding skips them and restore checks them.
const ckptSchemaVersion = 5

func ckptPath(dir, key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(dir, hex.EncodeToString(sum[:16])+".ckpt")
}

func warnf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "harness: WARNING: "+format+"\n", args...)
}

// diskLoad returns the stored checkpoint for key, its memory rebased onto
// w's pristine image, or nil (with a warning for anything other than a
// simple absence). n is the file size on success. The entry is restored
// once under cfg's warm configuration, with the warm prefix's slice table,
// before it is returned: only Restore checks the component sections. A
// corrupt entry, or one encoded over a different image, is left in place:
// the rebuild that follows replaces it.
func (cp *Checkpointer) diskLoad(key string, w *workloads.Workload, cfg cpu.Config, withSlices bool) (ck *cpu.Checkpoint, n int) {
	if cp.Dir == "" {
		return nil, 0
	}
	path := ckptPath(cp.Dir, key)
	b, err := os.ReadFile(path)
	if err != nil {
		if !os.IsNotExist(err) {
			warnf("checkpoint store: %v", err)
		}
		return nil, 0
	}
	payload, err := parseCkptFile(b, key)
	if err == nil {
		ck, err = cpu.DecodeCheckpoint(payload)
	}
	if err == nil {
		ck.Mem, err = ck.Mem.Rebase(w.MemImage())
	}
	if err == nil {
		var table *slicehw.Table
		if withSlices {
			table = w.SliceTable()
		}
		_, err = cpu.Restore(cfg.WarmConfig(), w.Image, ck, table)
	}
	if err != nil {
		warnf("ignoring checkpoint %s: %v", filepath.Base(path), err)
		return nil, 0
	}
	return ck, len(b)
}

func parseCkptFile(b []byte, key string) ([]byte, error) {
	r := wire.NewReader(b)
	magic, version, keyLen := r.Raw(len(ckptMagic)), r.U32(), r.U32()
	switch {
	case r.Err() != nil:
		return nil, fmt.Errorf("truncated header")
	case string(magic) != ckptMagic:
		return nil, fmt.Errorf("bad magic")
	case version != ckptSchemaVersion:
		return nil, fmt.Errorf("schema version %d, want %d (stale cache)", version, ckptSchemaVersion)
	}
	k := r.Raw(int(keyLen))
	crc, payLen := r.U32(), r.U64()
	switch {
	case r.Err() != nil:
		return nil, fmt.Errorf("truncated key or payload header")
	case string(k) != key:
		return nil, fmt.Errorf("key mismatch (stale or colliding entry)")
	case payLen != uint64(r.Len()):
		return nil, fmt.Errorf("payload length %d, have %d bytes", payLen, r.Len())
	}
	payload := r.Raw(r.Len())
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, fmt.Errorf("payload CRC mismatch (corrupt entry)")
	}
	return payload, nil
}

// diskStore writes the checkpoint for key; best-effort (a failure warns and
// the run proceeds). Returns bytes written, 0 if disabled or failed. The
// entry is written to a temp file unique to this call and renamed into
// place, so concurrent writers of one key (other Checkpointers, other
// processes) never interleave bytes: the last rename wins, and every
// version it can replace is whole.
func (cp *Checkpointer) diskStore(key string, ck *cpu.Checkpoint) int {
	if cp.Dir == "" {
		return 0
	}
	if err := os.MkdirAll(cp.Dir, 0o755); err != nil {
		warnf("checkpoint store: %v", err)
		return 0
	}
	b := ckptFile(key, ck.EncodeBinary())
	path := ckptPath(cp.Dir, key)
	f, err := os.CreateTemp(cp.Dir, filepath.Base(path)+".tmp*")
	if err != nil {
		warnf("checkpoint store: %v", err)
		return 0
	}
	_, err = f.Write(b)
	if err == nil {
		err = f.Chmod(0o644) // CreateTemp makes 0600; entries are shared
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
		warnf("checkpoint store: %v", err)
		return 0
	}
	return len(b)
}

// ckptFile wraps an encoded checkpoint in the store's container.
func ckptFile(key string, payload []byte) []byte {
	var w wire.Writer
	w.Raw([]byte(ckptMagic))
	w.U32(ckptSchemaVersion)
	w.U32(uint32(len(key)))
	w.Raw([]byte(key))
	w.U32(crc32.ChecksumIEEE(payload))
	w.U64(uint64(len(payload)))
	w.Raw(payload)
	return w.Bytes()
}
