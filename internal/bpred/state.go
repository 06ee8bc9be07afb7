package bpred

// Checkpointable RAS state. Predictor tables travel through the opaque
// Predictor.SaveState/LoadState blobs instead (see blob.go); the RAS is
// per-thread CPU state, not a registry predictor, so it keeps a typed
// state struct and its own section codec.

import (
	"fmt"

	"repro/internal/wire"
)

// RASStackState is the *full* stack image, unlike RASState's (sp, journal
// position) speculation-repair checkpoint: a warm checkpoint must
// reproduce every live stack slot, because the restored run pops
// arbitrarily deep. The repair journal is not captured — a checkpoint is
// taken at a quiesced point with nothing in flight, so the journal is
// logically empty, and SetStackState resets it.
type RASStackState struct {
	Stack []uint64
	SP    int
}

// StackState captures the whole stack.
func (r *RAS) StackState() RASStackState {
	s := RASStackState{Stack: make([]uint64, len(r.stack)), SP: r.sp}
	copy(s.Stack, r.stack)
	return s
}

// SetStackState restores a full stack image of matching capacity.
func (r *RAS) SetStackState(s RASStackState) error {
	if len(s.Stack) != len(r.stack) {
		return fmt.Errorf("ras: state has %d entries, stack has %d", len(s.Stack), len(r.stack))
	}
	copy(r.stack, s.Stack)
	r.sp = s.SP
	// The restored machine has nothing in flight: no checkpoint taken
	// before this point may be restored, so the repair journal restarts
	// empty.
	r.CommitAll()
	return nil
}

// EncodeRASStacks writes every thread context's stack image: the count of
// stacks, then per stack its entry count, entries and stack pointer.
func EncodeRASStacks(w *wire.Writer, stacks []RASStackState) {
	w.U64(uint64(len(stacks)))
	for _, s := range stacks {
		w.U64(uint64(len(s.Stack)))
		for _, v := range s.Stack {
			w.U64(v)
		}
		w.U64(uint64(s.SP))
	}
}

// DecodeRASStacks reads what EncodeRASStacks wrote; errors latch in r.
func DecodeRASStacks(r *wire.Reader) []RASStackState {
	var stacks []RASStackState
	for i, n := 0, r.Count(16); i < n && r.Err() == nil; i++ {
		var s RASStackState
		for j, m := 0, r.Count(8); j < m && r.Err() == nil; j++ {
			s.Stack = append(s.Stack, r.U64())
		}
		s.SP = int(r.U64())
		stacks = append(stacks, s)
	}
	return stacks
}
