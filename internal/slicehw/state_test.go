package slicehw

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/wire"
)

// savedCorrelator saves a correlator holding two live instances of the
// first of two slices, filled and empty predictions in two queues, and a
// used one; it returns the encoding, the slice table and the correlator.
func savedCorrelator(t testing.TB) ([]byte, *Table, *Correlator) {
	t.Helper()
	other := testSlice()
	other.Name, other.ForkPC, other.SlicePC = "other", 0x1100, 0x200000
	other.PGIs = []PGI{{SlicePC: 0x200010, BranchPC: 0x2100}}
	table := MustTable([]*Slice{testSlice(), other})
	s := table.Slices()[0]
	c := NewCorrelator(8)
	a, b := c.NewInstance(s), c.NewInstance(s)
	c.Fill(c.Allocate(a, 0x2000), true)
	c.Allocate(a, 0x2000)
	c.Fill(c.Allocate(b, 0x2004), false)
	p, _, _ := c.Lookup(0x2000, false, "br")
	c.DropConsumer(p, "br")
	var w wire.Writer
	if err := c.Save(&w); err != nil {
		t.Fatal(err)
	}
	return w.Bytes(), table, c
}

// loadCorr loads b into a fresh correlator; trailing bytes are an error.
func loadCorr(b []byte, table *Table) (*Correlator, error) {
	c := NewCorrelator(8)
	r := wire.NewReader(b)
	if err := c.Load(r, table); err != nil {
		return nil, err
	}
	return c, r.Done()
}

func saveCorr(t *testing.T, c *Correlator) []byte {
	t.Helper()
	var w wire.Writer
	if err := c.Save(&w); err != nil {
		t.Fatal(err)
	}
	return w.Bytes()
}

// TestCorrStateCodecRoundTrip: the saved correlator loads into a fresh
// one that saves the same bytes, passes CheckInvariants and answers a
// lookup as the original would; every strict prefix of the encoding is an
// error.
func TestCorrStateCodecRoundTrip(t *testing.T) {
	enc, table, orig := savedCorrelator(t)
	c, err := loadCorr(enc, table)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if len(c.queues) != 2 || len(c.liveBySlice[table.Slices()[0]]) != 2 {
		t.Fatalf("state too small to test: %d queues, %d live instances", len(c.queues), len(c.liveBySlice[table.Slices()[0]]))
	}
	if !bytes.Equal(saveCorr(t, c), enc) {
		t.Error("re-saving the loaded correlator changed the bytes")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Errorf("loaded correlator: %v", err)
	}
	for _, pc := range []uint64{0x2000, 0x2004} {
		for _, fallback := range []bool{false, true} {
			wp, wdir, wover := orig.Lookup(pc, fallback, "br")
			gp, gdir, gover := c.Lookup(pc, fallback, "br")
			if (wp.Live() == nil) != (gp.Live() == nil) || wdir != gdir || wover != gover {
				t.Errorf("lookup %#x (fallback %t): loaded correlator answers %t/%t/%t, original %t/%t/%t",
					pc, fallback, gp.Live() != nil, gdir, gover, wp.Live() != nil, wdir, wover)
			}
		}
	}
	for n := 0; n < len(enc); n++ {
		if _, err := loadCorr(enc[:n], table); err == nil {
			t.Fatalf("%d-byte prefix of %d accepted", n, len(enc))
		}
	}
}

// TestCorrStateCodecRejectsCorruption: a flag byte other than 0 or 1, a
// prediction count larger than the remaining bytes can hold, and every
// index or order Save could not have written are errors at Load.
func TestCorrStateCodecRejectsCorruption(t *testing.T) {
	enc, table, _ := savedCorrelator(t)
	// NextID, the prediction count, then 3 predictions of 21 bytes
	// (branch PC, five flags, instance index), then the instance
	// count and the first instance: ID, slice index, the two skip
	// counts, finished, then its entry count and entries.
	const predCount, firstFlag, firstOwner, predSize = 8, 24, 29, 21
	inst0 := 16 + 3*predSize + 8
	u64 := func(off int, v uint64) func([]byte) {
		return func(b []byte) { binary.LittleEndian.PutUint64(b[off:], v) }
	}
	// The live list closes the encoding: count, slice index, instance
	// count and the two instance indices.
	live := len(enc) - 5*8
	// Queues precede it: 0x2000 holds predictions 0 and 1, 0x2004
	// prediction 2.
	queues := live - (8 + 8 + 8 + 2*8 + 8 + 8 + 8)
	for _, tc := range []struct {
		name string
		bad  func(b []byte)
	}{
		{"flag byte 2", func(b []byte) { b[firstFlag] = 2 }},
		{"huge count", u64(predCount, uint64(len(enc)))},
		{"prediction owner out of range", u64(firstOwner, 2)},
		{"prediction listed by no instance", u64(inst0+4*8+1+8+8, 0)}, // instance 0's second entry
		{"slice out of range", u64(inst0+8, 2)},
		{"instance of another slice", u64(inst0+8, 1)},
		{"queue branch PC changed", u64(queues+8, 0x2008)},
		{"queue names a prediction out of order", u64(queues+8+16, 1)},
		{"queue for another branch", func(b []byte) {
			binary.LittleEndian.PutUint64(b[16:], 0x2004) // prediction 0's branch
		}},
		{"live list of a slice out of range", u64(live+8, 2)},
		{"live list of another slice", u64(live+8, 1)},
		{"live list names an instance out of order", u64(live+24, 1)},
		{"empty live list", func(b []byte) {
			binary.LittleEndian.PutUint64(b[live:], 0) // and trailing bytes
		}},
	} {
		bad := append([]byte(nil), enc...)
		tc.bad(bad)
		if _, err := loadCorr(bad, table); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// Instance 0 lists its predictions 0 and 1, then 0 again: every
	// prediction is listed, one of them twice.
	entries := inst0 + 4*8 + 1
	dup := binary.LittleEndian.AppendUint64(append([]byte(nil), enc[:entries]...), 3)
	dup = append(dup, enc[entries+8:entries+24]...)
	dup = binary.LittleEndian.AppendUint64(dup, 0)
	if _, err := loadCorr(append(dup, enc[entries+24:]...), table); err == nil {
		t.Error("prediction listed twice: accepted")
	}
	// Queue 0x2000 holds two predictions, one more than this correlator's
	// queues may.
	if err := NewCorrelator(1).Load(wire.NewReader(enc), table); err == nil {
		t.Error("queue longer than maxPerBranch accepted")
	}
}

// FuzzCorrelatorLoad: no input makes Load panic, and every input Load
// accepts (with nothing left over) is canonical — Save writes it back
// byte for byte. Seeded with the small correlator's encoding, whole,
// truncated and bit-flipped.
func FuzzCorrelatorLoad(f *testing.F) {
	enc, table, _ := savedCorrelator(f)
	f.Add(enc)
	f.Add(enc[:len(enc)/2])
	for _, off := range []int{0, 8, 24, len(enc) / 2, len(enc) - 8} {
		bad := append([]byte(nil), enc...)
		bad[off] ^= 0x01
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		c, err := loadCorr(b, table)
		if err != nil {
			return
		}
		if !bytes.Equal(saveCorr(t, c), b) {
			t.Fatal("an accepted encoding does not re-save to itself")
		}
	})
}
