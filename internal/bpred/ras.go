package bpred

import "repro/internal/stats"

// RAS is the 64-entry return address stack. Pushes and pops happen
// speculatively at fetch. Squash repair is full-height: every Push
// journals the stack slot it overwrites, each in-flight control
// instruction checkpoints (stack pointer, journal position) — both O(1) —
// and a restore rewinds the journal to the checkpointed position, undoing
// every wrong-path overwrite. The retire stage commits checkpoints in
// program order (Commit), which trims the dead journal prefix, so the
// live journal never holds more entries than there are in-flight pushes.
//
// The earlier scheme saved only (sp, top): wrong-path pops below the
// checkpointed top that were then overwritten by wrong-path pushes stayed
// corrupted and surfaced as spurious RET mispredictions after deep
// call-chain squashes. The journal repairs those slots exactly.
type RAS struct {
	stack []uint64
	sp    int // index of the next free slot (top is sp-1)

	// jbuf[jhead:] is the live journal of stack-slot overwrites, oldest
	// first; jbase is the absolute journal position of jbuf[jhead].
	// Entries in jbuf[:jhead] are committed (their pushes retired) and are
	// reclaimed lazily so Commit stays amortized O(1).
	jbuf  []rasWrite
	jhead int
	jbase uint64

	// Stats counts speculative fetch-path traffic (squash repair does not
	// rewind the counters; they tally events as the front end saw them).
	Stats stats.RASStats
}

// rasWrite records one stack-slot overwrite: slot idx held old before the
// push that journaled it.
type rasWrite struct {
	idx int
	old uint64
}

// RASState is an O(1) checkpoint of the stack: the stack pointer and the
// absolute journal position at capture time. Restore repairs the full
// stack height by unwinding the journal back to J.
type RASState struct {
	SP int
	J  uint64
}

// NewRAS builds a return address stack of n entries.
func NewRAS(n int) *RAS { return &RAS{stack: make([]uint64, n)} }

func (r *RAS) wrap(i int) int {
	n := len(r.stack)
	return ((i % n) + n) % n
}

// jtail is the absolute journal position one past the newest entry.
func (r *RAS) jtail() uint64 { return r.jbase + uint64(len(r.jbuf)-r.jhead) }

// Push records a return address (on CALL fetch).
func (r *RAS) Push(addr uint64) {
	r.Stats.Pushes++
	if r.sp >= len(r.stack) {
		r.Stats.Overflows++
	}
	w := r.wrap(r.sp)
	r.jbuf = append(r.jbuf, rasWrite{idx: w, old: r.stack[w]})
	r.stack[w] = addr
	r.sp++
}

// Pop predicts the target of a RET. Pops do not write the stack body, so
// they need no journal entry — restoring sp alone repairs them.
func (r *RAS) Pop() uint64 {
	r.Stats.Pops++
	if r.sp <= 0 {
		r.Stats.Underflows++
	}
	r.sp--
	return r.stack[r.wrap(r.sp)]
}

// Mark captures a speculation-repair checkpoint.
func (r *RAS) Mark() RASState {
	return RASState{SP: r.sp, J: r.jtail()}
}

// Restore rewinds to a checkpoint, undoing every stack-slot overwrite
// journaled after it. Callers restore in-flight checkpoints only, which
// Commit has not passed; a position older than the journal (possible only
// through misuse) degrades to pointer-only repair of what remains.
func (r *RAS) Restore(s RASState) {
	j := s.J
	if j < r.jbase {
		j = r.jbase
	}
	for r.jtail() > j {
		e := r.jbuf[len(r.jbuf)-1]
		r.stack[e.idx] = e.old
		r.jbuf = r.jbuf[:len(r.jbuf)-1]
	}
	if r.jhead == len(r.jbuf) {
		r.jbuf, r.jhead = r.jbuf[:0], 0
	}
	r.sp = s.SP
}

// Commit retires a checkpoint taken at s: every journal entry at a
// position below s.J belongs to a push that is now architecturally
// committed and can never be restored past again. The retire stage calls
// this in program order, bounding the live journal by the number of
// in-flight pushes. The dead prefix is dropped lazily (amortized O(1)).
func (r *RAS) Commit(s RASState) {
	if s.J <= r.jbase {
		return
	}
	n := int(s.J - r.jbase)
	if live := len(r.jbuf) - r.jhead; n > live {
		n = live
	}
	r.jhead += n
	r.jbase += uint64(n)
	if r.jhead == len(r.jbuf) {
		r.jbuf, r.jhead = r.jbuf[:0], 0
	} else if r.jhead >= 32 && r.jhead >= len(r.jbuf)-r.jhead {
		m := copy(r.jbuf, r.jbuf[r.jhead:])
		r.jbuf, r.jhead = r.jbuf[:m], 0
	}
}

// CommitAll drops the whole journal. Valid only when no checkpoint taken
// before now will ever be restored — e.g. the functional warm loop, which
// pushes and pops with no speculation to repair.
func (r *RAS) CommitAll() {
	r.jbase = r.jtail()
	r.jbuf, r.jhead = r.jbuf[:0], 0
}

// Depth returns the logical stack depth (can exceed capacity under deep
// recursion; the oldest entries are then overwritten).
func (r *RAS) Depth() int { return r.sp }
