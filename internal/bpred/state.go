package bpred

// Warm-checkpoint state of the RAS. Predictor tables travel through the
// opaque Predictor.SaveState/LoadState blobs instead (see blob.go); the
// RAS is per-thread CPU state, not a registry predictor, so the CPU saves
// and loads each thread context's stack in place through Save and Load.

import (
	"fmt"

	"repro/internal/wire"
)

// Save writes the *full* stack image, unlike RASState's (sp, journal
// position) speculation-repair checkpoint: a warm checkpoint must
// reproduce every live stack slot, because the restored run pops
// arbitrarily deep. It writes the entry count, every entry and the stack
// pointer. The repair journal is not saved: a checkpoint is taken at a
// quiesced point with nothing in flight, so the journal is logically
// empty, and Load resets it.
func (r *RAS) Save(w *wire.Writer) {
	w.U64(uint64(len(r.stack)))
	for _, v := range r.stack {
		w.U64(v)
	}
	w.U64(uint64(r.sp))
}

// Load reads what Save wrote into a stack of the same capacity.
func (r *RAS) Load(rd *wire.Reader) error {
	rd.Expect(uint64(len(r.stack)), "RAS entries")
	for i := range r.stack {
		r.stack[i] = rd.U64()
	}
	r.sp = int(rd.U64())
	if err := rd.Err(); err != nil {
		return fmt.Errorf("ras: %w", err)
	}
	// The restored machine has nothing in flight: no checkpoint taken
	// before this point may be restored, so the repair journal restarts
	// empty.
	r.CommitAll()
	return nil
}
