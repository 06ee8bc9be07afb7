package workloads

import (
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
)

// TestVPRSliceMatchesFigure5 locks the vpr slice to the paper's Figure 5
// structure: load the heap base, copy the tail, then a loop of
// {shift-right, scaled-add, load heap[ito], load ->cost, compare} with an
// unconditional back edge — eight static instructions, the compare being
// the PGI, terminated only by the iteration bound.
func TestVPRSliceMatchesFigure5(t *testing.T) {
	w, err := ByName("vpr")
	if err != nil {
		t.Fatal(err)
	}
	sl := w.Slices[0]
	if sl.StaticSize != 8 {
		t.Errorf("static size %d, Figure 5 has 8", sl.StaticSize)
	}
	if sl.LoopSize != 6 {
		t.Errorf("loop size %d, want 6", sl.LoopSize)
	}

	var ops []isa.Op
	for pc := sl.SlicePC; ; pc += isa.InstBytes {
		in, ok := w.Image.At(pc)
		if !ok {
			break
		}
		ops = append(ops, in.Op)
	}
	want := []isa.Op{isa.LD, isa.OR, isa.SRAI, isa.S8ADD, isa.LD, isa.LD, isa.CMPLT, isa.BR}
	if len(ops) != len(want) {
		t.Fatalf("slice ops = %v", ops)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Errorf("op %d = %v, want %v", i, ops[i], want[i])
		}
	}
	// The PGI is the compare; the prediction maps "compare == 0" to the
	// exit branch being taken.
	if pgi := sl.PGIs[0]; !pgi.TakenIfZero {
		t.Error("vpr PGI polarity wrong")
	}
	// Annotations from Figure 5: fork on node_to_heap, live-ins include
	// gp and the cost, bounded iterations.
	foundGP := false
	for _, r := range sl.LiveIns {
		if r == isa.GP {
			foundGP = true
		}
	}
	if !foundGP {
		t.Error("gp must be a live-in, as in Figure 5")
	}
	if sl.MaxLoops == 0 {
		t.Error("the slice must rely on a maximum iteration count")
	}
}

// TestSliceDisassemblyGolden locks each workload's slice entry labels so
// accidental reassembly shifts are caught.
func TestSliceDisassemblyGolden(t *testing.T) {
	for _, w := range All() {
		progs := w.Image.Programs()
		if len(progs) < 2 {
			t.Errorf("%s: no slice code region", w.Name)
			continue
		}
		for _, p := range progs[1:] {
			text := p.Disasm()
			if !strings.Contains(text, ":") {
				t.Errorf("%s: slice region has no labels:\n%s", w.Name, text)
			}
			// Slice code must contain no stores (§4.1) — the single
			// enforcement exception is the cpu-level drop, but authored
			// slices must simply not contain them.
			for i := range p.Insts {
				if p.Insts[i].IsStore() {
					t.Errorf("%s: slice at %#x contains a store", w.Name, p.Base+uint64(i)*isa.InstBytes)
				}
			}
		}
	}
}

// TestWorkloadDataDeterminism: two fresh memories must be identical.
func TestWorkloadDataDeterminism(t *testing.T) {
	for _, w := range All() {
		// NewMemory clones the image InitMem built once; running InitMem
		// again on a fresh memory must reproduce it.
		m1, m2 := w.NewMemory(), mem.New()
		w.InitMem(m2)
		if m1.Footprint() != m2.Footprint() {
			t.Errorf("%s: nondeterministic footprint", w.Name)
		}
		// Spot-check a few pages.
		for _, addr := range []uint64{0x10000, 0x200000, 0x400000, 0x800000, 0x1000000} {
			for off := uint64(0); off < 256; off += 8 {
				if m1.ReadU64(addr+off) != m2.ReadU64(addr+off) {
					t.Errorf("%s: nondeterministic data at %#x", w.Name, addr+off)
					break
				}
			}
		}
	}
}
