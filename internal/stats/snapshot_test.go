package stats

import (
	"reflect"
	"testing"
)

func sampleSnapshot() *Snapshot {
	s := &Snapshot{}
	s.Sim = *New()
	s.Sim.Cycles = 100
	s.Sim.MainRetired = 50
	s.Sim.Mispredicts = 7
	s.Sim.ByPC(0x40).Execs = 9
	s.Sim.ByPC(0x40).Mispredicts = 3
	s.Sim.ByPC(0x40).IsBranch = true
	s.Hier.DemandLoads = 20
	s.L1D = CacheStats{Accesses: 30, Hits: 25, Misses: 5}
	s.PVB.Evictions = 2
	s.Bpred.YAGS.Lookups = 40
	s.Bpred.RAS.Underflows = 1
	s.Corr.Generated = 12
	return s
}

func TestZeroClearsEveryCounter(t *testing.T) {
	s := sampleSnapshot()
	s.Reset()
	ForEachCounter(s, func(path string, v reflect.Value) {
		if !v.IsZero() {
			t.Errorf("%s survived Reset: %v", path, v.Interface())
		}
	})
	if len(s.Sim.Static) != 0 {
		t.Errorf("Static map survived Reset with %d entries", len(s.Sim.Static))
	}
	if s.Sim.Static == nil {
		t.Error("Reset nil'd the Static map instead of clearing it")
	}
}

func TestMergeAccumulates(t *testing.T) {
	a, b := sampleSnapshot(), sampleSnapshot()
	Add(a, b)
	if a.Sim.Cycles != 200 || a.L1D.Hits != 50 || a.Corr.Generated != 24 {
		t.Errorf("Add did not double counters: cycles=%d l1dHits=%d gen=%d",
			a.Sim.Cycles, a.L1D.Hits, a.Corr.Generated)
	}
	st := a.Sim.Static[0x40]
	if st.Execs != 18 || st.Mispredicts != 6 {
		t.Errorf("Add did not sum per-PC counters: %+v", st)
	}
	if st.PC != 0x40 {
		t.Errorf("Add corrupted the PC identity field: %#x", st.PC)
	}
	if !st.IsBranch {
		t.Error("Add dropped the IsBranch identity field")
	}
	// The source must be untouched, including its map entries.
	if b.Sim.Static[0x40].Execs != 9 {
		t.Errorf("Add mutated its source: %+v", b.Sim.Static[0x40])
	}
}

func TestMergeDeepCopiesMissingEntries(t *testing.T) {
	a := &Snapshot{Sim: *New()}
	b := sampleSnapshot()
	Add(a, b)
	a.Sim.Static[0x40].Execs = 999
	if b.Sim.Static[0x40].Execs != 9 {
		t.Error("Add aliased a map entry between snapshots")
	}
}

func TestSimClone(t *testing.T) {
	s := New()
	s.ByPC(0x10).Execs = 5
	cp := s.Clone()
	cp.ByPC(0x10).Execs = 50
	if s.Static[0x10].Execs != 5 {
		t.Error("Sim.Clone shares the Static map")
	}
}

// TestSnapshotResetCompleteness is the reflection-walk guard the issue
// asks for: every numeric field of every Snapshot component — including
// ones added after this test was written — must be zeroed by Reset. The
// sample is built by setting every counter to a nonzero value via the
// same walk, so a new field cannot dodge the check.
func TestSnapshotResetCompleteness(t *testing.T) {
	s := &Snapshot{Sim: *New()}
	n := 0
	ForEachCounter(s, func(path string, v reflect.Value) {
		n++
		switch v.Kind() {
		case reflect.Float32, reflect.Float64:
			v.SetFloat(1)
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			v.SetInt(1)
		default:
			v.SetUint(1)
		}
	})
	if n < 50 {
		t.Fatalf("walk found only %d counters; Snapshot should have many more", n)
	}
	s.Reset()
	ForEachCounter(s, func(path string, v reflect.Value) {
		if !v.IsZero() {
			t.Errorf("counter %s survived Snapshot.Reset", path)
		}
	})
}

// TestAddIntoZeroCopies: adding a snapshot into a zero one reproduces it
// exactly — per-PC entries and Progs elements included — without sharing
// a pointer with the source.
func TestAddIntoZeroCopies(t *testing.T) {
	src := sampleSnapshot()
	src.Progs = []Sim{*src.Sim.Clone(), *New()}
	var dst Snapshot
	Add(&dst, src)
	if !reflect.DeepEqual(&dst, src) {
		t.Fatalf("Add into zero = %+v, want %+v", dst, *src)
	}
	dst.Progs[0].Static[0x40].Execs = 999
	if src.Progs[0].Static[0x40].Execs != 9 {
		t.Error("Add aliased a Progs map entry")
	}
}

func TestBpredSetRejectsUnknownCounters(t *testing.T) {
	var b BpredStats
	b.Set(&YAGSStats{Kind: "yags", Lookups: 3})
	if b.YAGS.Lookups != 3 {
		t.Errorf("Set did not copy YAGS counters: %+v", b.YAGS)
	}
	defer func() {
		if recover() == nil {
			t.Error("Set accepted a type with no section")
		}
	}()
	b.Set(&CacheStats{})
}
