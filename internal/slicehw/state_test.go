package slicehw

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"repro/internal/wire"
)

// correlatorState flattens a correlator holding two live instances of one
// slice, filled and empty predictions in two queues, and a used one.
func correlatorState(t *testing.T) (*CorrState, *Table) {
	t.Helper()
	table := MustTable([]*Slice{testSlice()})
	s := table.Slices()[0]
	c := NewCorrelator(8)
	a, b := c.NewInstance(s), c.NewInstance(s)
	c.Fill(c.Allocate(a, 0x2000), true)
	c.Allocate(a, 0x2000)
	c.Fill(c.Allocate(b, 0x2004), false)
	p, _, _ := c.Lookup(0x2000, false, "br")
	c.DropConsumer(p, "br")
	st, err := c.State()
	if err != nil {
		t.Fatal(err)
	}
	return st, table
}

func encodeCorr(st *CorrState) []byte {
	var w wire.Writer
	st.Encode(&w)
	return w.Bytes()
}

func decodeCorr(b []byte) (*CorrState, error) {
	r := wire.NewReader(b)
	st := DecodeCorrState(r)
	return st, r.Done()
}

// TestCorrStateCodecRoundTrip: the flattened correlator decodes to itself,
// re-encodes to the same bytes and restores into a correlator that
// flattens identically; every strict prefix of the encoding is an error.
func TestCorrStateCodecRoundTrip(t *testing.T) {
	st, table := correlatorState(t)
	if len(st.Preds) < 3 || len(st.Insts) != 2 || len(st.Queues) != 2 || len(st.Live) != 1 {
		t.Fatalf("state too small to test: %+v", st)
	}
	enc := encodeCorr(st)
	dec, err := decodeCorr(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(dec, st) {
		t.Fatal("decoded state differs from the captured one")
	}
	if !bytes.Equal(encodeCorr(dec), enc) {
		t.Error("re-encoding changed the bytes")
	}
	c := NewCorrelator(8)
	if err := c.SetState(dec, table); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if again, err := c.State(); err != nil || !reflect.DeepEqual(again, st) {
		t.Errorf("restored correlator flattens differently (err %v)", err)
	}
	for n := 0; n < len(enc); n++ {
		if _, err := decodeCorr(enc[:n]); err == nil {
			t.Fatalf("%d-byte prefix of %d accepted", n, len(enc))
		}
	}
}

// TestCorrStateCodecRejectsCorruption: a flag byte other than 0 or 1 and a
// prediction count larger than the remaining bytes can hold are errors.
func TestCorrStateCodecRejectsCorruption(t *testing.T) {
	st, _ := correlatorState(t)
	enc := encodeCorr(st)
	// NextID, the prediction count, then the first prediction: branch PC
	// followed by its five flags.
	const predCount, firstFlag = 8, 24
	for _, tc := range []struct {
		name string
		bad  func(b []byte)
	}{
		{"flag byte 2", func(b []byte) { b[firstFlag] = 2 }},
		{"huge count", func(b []byte) { binary.LittleEndian.PutUint64(b[predCount:], uint64(len(b))) }},
	} {
		bad := append([]byte(nil), enc...)
		tc.bad(bad)
		if _, err := decodeCorr(bad); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
