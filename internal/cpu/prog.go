package cpu

import (
	"repro/internal/asm"
	"repro/internal/mem"
	"repro/internal/slicehw"
	"repro/internal/stats"
)

// Multi-programmed mode: the core can co-schedule up to MaxPrograms main
// threads, each running its own program image against its own memory view,
// contending for fetch slots (biased ICOUNT), window space, and the shared
// cache hierarchy — the scenario where slice helpers compete with real
// work instead of idle contexts. Each program owns everything that is
// architecturally or statistically *per program*: code image, memory,
// slice hardware (table, correlator, confidence), committed-store queue,
// halt tracking, and a stats.Sim. Shared predictors are indexed with a
// per-program PC salt so identical virtual PCs in different programs do
// not alias destructively; the cache hierarchy sees per-program physical
// addresses offset by physBase. Program slot 0 has zero salt and zero
// offset, so a single-program core behaves bit-for-bit as before.

// MaxPrograms bounds how many programs one core co-schedules.
const MaxPrograms = 4

// progPhysStride separates program address spaces in the cache hierarchy:
// program i's accesses are offset by i*progPhysStride. 4 GiB dwarfs every
// workload's footprint, so partitions never collide.
const progPhysStride = uint64(1) << 32

// progPhysSkew additionally staggers each partition by i*8KiB. A bare
// power-of-two stride preserves every cache index bit, so co-scheduled
// programs with identical virtual layouts (all workloads link at the same
// base) would collide set-for-set in every cache — three mains in the
// 2-way I-cache would fight over one set. Real co-scheduled processes get
// distinct physical pages; the skew models that, spreading the four slots
// evenly across the 32KiB L1 index span (and distinctly across L2's).
const progPhysSkew = uint64(8) << 10

// progSaltStride scrambles predictor indices per program (slot 0 gets 0).
const progSaltStride = 0x9e3779b97f4a7c15

// ProgSpec describes one program slot for NewMulti.
type ProgSpec struct {
	Image *asm.Image
	Mem   *mem.Memory
	Entry uint64
	// SliceTable enables the slice hardware for this program (nil: none).
	// Each program gets its own correlator and confidence table.
	SliceTable *slicehw.Table
}

// progState is the per-program half of the core: the state a main thread
// and its forked helpers read and write that must not be shared with a
// co-scheduled program.
type progState struct {
	index int
	image *asm.Image
	mem   *mem.Memory

	sliceTable *slicehw.Table
	corr       *slicehw.Correlator
	conf       *confidence

	// pcs is the program table (pctable.go): every per-PC fact the cycle
	// loop consults about this program.
	pcs pcTable

	// mainStores is the queue of this program's in-flight main-thread
	// stores with a recorded memory effect, for committedRead: pushed at
	// fetch, popped at retire (front) and squash (back).
	mainStores instRing

	main   *Thread
	halted bool

	physBase uint64 // cache-hierarchy address offset
	predSalt uint64 // shared-predictor PC salt

	S *stats.Sim
}

// drainedMain reports whether this program's main thread halted and its
// pipeline share emptied.
func (p *progState) drainedMain() bool {
	return p.halted && p.main.rob.len() == 0 && p.main.fetchq.len() == 0
}

// physAddr maps a program-virtual address onto the hierarchy's address
// space.
func (p *progState) physAddr(addr uint64) uint64 { return addr + p.physBase }

// saltPC scrambles a PC for the shared direction/indirect predictor
// tables. Slot 0's salt is zero, so single-program indexing is unchanged.
func (p *progState) saltPC(pc uint64) uint64 { return pc ^ p.predSalt }
