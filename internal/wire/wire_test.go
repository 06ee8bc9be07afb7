package wire

import (
	"bytes"
	"errors"
	"testing"
)

// sample writes one of every primitive.
func sample() []byte {
	var w Writer
	w.U8(0xab)
	w.U16(0xbeef)
	w.U32(0xdeadbeef)
	w.U64(0x0123456789abcdef)
	w.Bool(true)
	w.Bool(false)
	w.Blob([]byte("spec"))
	w.Raw([]byte{1, 2, 3})
	return w.Bytes()
}

// readSample reads what sample wrote, checking each value, and returns
// the reader's final verdict.
func readSample(t *testing.T, b []byte) error {
	t.Helper()
	r := NewReader(b)
	u8, u16, u32, u64 := r.U8(), r.U16(), r.U32(), r.U64()
	t1, f1, blob, raw := r.Bool(), r.Bool(), r.Blob(), r.Raw(3)
	err := r.Done()
	if err == nil && (u8 != 0xab || u16 != 0xbeef || u32 != 0xdeadbeef || u64 != 0x0123456789abcdef ||
		!t1 || f1 || string(blob) != "spec" || !bytes.Equal(raw, []byte{1, 2, 3})) {
		t.Fatal("accepted stream read back different values")
	}
	return err
}

// TestRoundTripAndTruncation: the sample reads back exactly, and every
// strict prefix of it — a cut inside any primitive — is an error.
func TestRoundTripAndTruncation(t *testing.T) {
	b := sample()
	if err := readSample(t, b); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	for n := 0; n < len(b); n++ {
		if err := readSample(t, b[:n]); err == nil {
			t.Errorf("%d-byte prefix of %d accepted", n, len(b))
		}
	}
}

// TestTrailingBytes: Done rejects bytes left unread.
func TestTrailingBytes(t *testing.T) {
	if err := readSample(t, append(sample(), 0)); err == nil {
		t.Error("trailing byte accepted")
	}
}

// TestBoolStrict: only 0 and 1 are bools, so every accepted stream is
// canonical.
func TestBoolStrict(t *testing.T) {
	for _, v := range []byte{2, 0x80, 0xff} {
		r := NewReader([]byte{v})
		if r.Bool(); r.Err() == nil {
			t.Errorf("bool byte %d accepted", v)
		}
	}
}

// TestCountBound: a count that fits the remaining bytes at minSize each
// passes; one element more fails at Count, before anything is allocated.
func TestCountBound(t *testing.T) {
	count := func(n uint64, rest, minSize int) error {
		var w Writer
		w.U64(n)
		w.Raw(make([]byte, rest))
		r := NewReader(w.Bytes())
		r.Count(minSize)
		return r.Err()
	}
	if err := count(4, 20, 5); err != nil {
		t.Errorf("4 elements of 5 bytes in 20: %v", err)
	}
	if err := count(5, 20, 5); err == nil || errors.Is(err, ErrTruncated) {
		t.Errorf("5 elements of 5 bytes in 20: err = %v, want a count error", err)
	}
	if err := count(1<<62, 20, 1); err == nil {
		t.Error("huge count accepted")
	}
}

// TestExpect: a size equal to the configured one passes; any other fails.
func TestExpect(t *testing.T) {
	var w Writer
	w.U64(64)
	w.U64(64)
	r := NewReader(w.Bytes())
	if r.Expect(64, "entries"); r.Err() != nil {
		t.Fatalf("matching size: %v", r.Err())
	}
	if r.Expect(128, "entries"); r.Err() == nil {
		t.Error("mismatched size accepted")
	}
}

// TestErrorLatches: after the first error every read is a zero value and
// Fail keeps the first error.
func TestErrorLatches(t *testing.T) {
	r := NewReader([]byte{7})
	r.U16()
	first := r.Err()
	if !errors.Is(first, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", first)
	}
	r.Fail(errors.New("later"))
	if r.U8() != 0 || r.U64() != 0 || r.Blob() != nil || r.Err() != first {
		t.Error("reads after an error returned data or replaced the error")
	}
}

// TestSealOpen: Open accepts what Seal wrote and rejects any flipped bit
// and any cut.
func TestSealOpen(t *testing.T) {
	var w Writer
	w.Raw(sample())
	sealed := w.Seal()
	r, err := Open(sealed)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := readSample(t, r.Raw(r.Len())); err != nil {
		t.Fatalf("payload: %v", err)
	}
	for i := 0; i < len(sealed)*8; i++ {
		bad := append([]byte(nil), sealed...)
		bad[i/8] ^= 1 << (i % 8)
		if _, err := Open(bad); err == nil {
			t.Fatalf("flipped bit %d accepted", i)
		}
	}
	for n := 0; n < len(sealed); n++ {
		if _, err := Open(sealed[:n]); err == nil {
			t.Errorf("%d-byte prefix accepted", n)
		}
	}
}
