package mem

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/wire"
)

// newRoot builds a small pristine image of three pages.
func newRoot(seed byte) *Snapshot {
	m := New()
	for i := uint64(1); i <= 3; i++ {
		m.WriteBytes(i*0x10000, bytes.Repeat([]byte{seed + byte(i)}, 64))
	}
	return m.Snapshot()
}

// encode returns s's encoding.
func encode(s *Snapshot) []byte {
	var w wire.Writer
	s.Encode(&w)
	return w.Bytes()
}

// decode decodes b, requiring that it consumes every byte.
func decode(b []byte) (*Snapshot, error) {
	r := wire.NewReader(b)
	s := DecodeSnapshot(r)
	return s, r.Done()
}

// decodeAll is decode that fails the test on an error.
func decodeAll(t *testing.T, b []byte) *Snapshot {
	t.Helper()
	s, err := decode(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return s
}

// listedPages is the count of pages an encoding carries.
func listedPages(b []byte) uint64 { return binary.LittleEndian.Uint64(b[32+8:]) }

// TestSnapshotDeltaOverRoot: a memory cloned from a root encodes only the
// pages it changed, and the delta rebased onto the root reproduces it.
func TestSnapshotDeltaOverRoot(t *testing.T) {
	root := newRoot(1)
	m := NewFromImage(root)
	m.WriteU64(0x20008, 0xfeed)             // change a root page
	m.WriteU64(0x90000, 0xbeef)             // map a new page
	m.WriteU64(0x30000, m.ReadU64(0x30000)) // copy on write, same bytes
	s := m.Snapshot()
	enc := encode(s)
	if n := listedPages(enc); n != 2 {
		t.Fatalf("encoding lists %d pages, want 2 (one changed, one new)", n)
	}

	dec := decodeAll(t, enc)
	if dec.Resolved() {
		t.Fatal("a rooted encoding decoded as resolved")
	}
	if !bytes.Equal(encode(dec), enc) {
		t.Error("re-encoding the unresolved delta changed the bytes")
	}
	r, err := dec.Rebase(root)
	if err != nil {
		t.Fatalf("rebase: %v", err)
	}
	if !r.Equal(s) || r.Footprint() != s.Footprint() {
		t.Error("rebased snapshot differs from the original")
	}
	if !bytes.Equal(encode(r), enc) {
		t.Error("re-encoding the rebased snapshot changed the bytes")
	}
	if got := NewFromSnapshot(r).ReadU64(0x20008); got != 0xfeed {
		t.Errorf("restored memory reads %#x, want 0xfeed", got)
	}
}

// TestSnapshotPristineRewriteNotSerialized: a page copied on write and
// then rewritten to its pristine bytes is not serialized.
func TestSnapshotPristineRewriteNotSerialized(t *testing.T) {
	root := newRoot(1)
	m := NewFromImage(root)
	old := m.ReadU64(0x10000)
	m.WriteU64(0x10000, ^old)
	if n := listedPages(encode(m.Snapshot())); n != 1 {
		t.Fatalf("changed page: encoding lists %d pages, want 1", n)
	}
	m.WriteU64(0x10000, old)
	if n := listedPages(encode(m.Snapshot())); n != 0 {
		t.Errorf("page rewritten to its pristine bytes: encoding lists %d pages, want 0", n)
	}
}

// TestSnapshotRebaseWrongRoot: a delta refuses a root with other contents,
// a root-less snapshot, and another delta.
func TestSnapshotRebaseWrongRoot(t *testing.T) {
	root := newRoot(1)
	m := NewFromImage(root)
	m.WriteU64(0x10000, 7)
	enc := encode(m.Snapshot())
	dec := decodeAll(t, enc)
	if _, err := dec.Rebase(newRoot(2)); err == nil {
		t.Error("rebase onto a different image succeeded")
	}
	if _, err := dec.Rebase(nil); err == nil {
		t.Error("rebase onto no root succeeded")
	}
	if _, err := dec.Rebase(decodeAll(t, enc)); err == nil {
		t.Error("rebase onto an unresolved delta succeeded")
	}
	// Equal contents under another pointer are the same root.
	if _, err := dec.Rebase(newRoot(1)); err != nil {
		t.Errorf("rebase onto an identical image: %v", err)
	}
}

// TestSnapshotRebasePageCount: a delta whose total disagrees with what the
// root supplies is rejected.
func TestSnapshotRebasePageCount(t *testing.T) {
	root := newRoot(1)
	enc := encode(NewFromImage(root).Snapshot())
	binary.LittleEndian.PutUint64(enc[32:], 4) // claims one page more than the root has
	if _, err := decodeAll(t, enc).Rebase(root); err == nil {
		t.Error("rebase accepted a page count the root cannot supply")
	}
}

// TestSnapshotRebaseRejectsRootPage: a delta listing a page with its
// root's exact contents is not an encoding Encode writes (it skips such
// pages), so Rebase refuses it rather than accept bytes that re-encode
// differently.
func TestSnapshotRebaseRejectsRootPage(t *testing.T) {
	root := newRoot(1)
	m := NewFromImage(root)
	b, _ := m.Byte(0x30000)
	m.SetByte(0x30000, b^0x01)
	enc := encode(m.Snapshot())
	enc[48+8] ^= 0x01 // the listed page's first byte, back to the root's
	if _, err := decodeAll(t, enc).Rebase(root); err == nil {
		t.Error("rebase accepted a delta page equal to its root's")
	}
}

// TestSnapshotRootlessRoundTrip: a memory with no root encodes every page
// under an all-zero digest and decodes resolved.
func TestSnapshotRootlessRoundTrip(t *testing.T) {
	m := New()
	m.WriteU64(0x10000, 1)
	m.WriteU64(0x50000, 2)
	s := m.Snapshot()
	enc := encode(s)
	if !bytes.Equal(enc[:32], make([]byte, 32)) {
		t.Error("root-less encoding has a non-zero root digest")
	}
	dec := decodeAll(t, enc)
	if !dec.Resolved() || !dec.Equal(s) || dec.Footprint() != s.Footprint() {
		t.Fatal("root-less snapshot did not round-trip")
	}
	if r, err := dec.Rebase(nil); err != nil || r != dec {
		t.Errorf("rebase of a root-less snapshot onto no root: %v", err)
	}
	if _, err := dec.Rebase(newRoot(1)); err == nil {
		t.Error("rebase of a root-less snapshot onto a root succeeded")
	}
	if got := NewFromSnapshot(dec).ReadU64(0x50000); got != 2 {
		t.Errorf("restored memory reads %d, want 2", got)
	}
}

// TestDecodeSnapshotRejectsMalformed: page numbers out of order, more
// listed pages than the total, and a self-contained encoding missing pages
// are errors.
func TestDecodeSnapshotRejectsMalformed(t *testing.T) {
	m := New()
	m.WriteU64(0x10000, 1)
	m.WriteU64(0x20000, 2)
	enc := encode(m.Snapshot())
	first, second := 48, 48+8+PageSize

	swapped := append([]byte(nil), enc...)
	copy(swapped[first:first+8], enc[second:second+8])
	copy(swapped[second:second+8], enc[first:first+8])
	if _, err := decode(swapped); err == nil {
		t.Error("descending page numbers accepted")
	}
	dup := append([]byte(nil), enc...)
	copy(dup[second:second+8], enc[first:first+8])
	if _, err := decode(dup); err == nil {
		t.Error("repeated page number accepted")
	}
	over := append([]byte(nil), enc...)
	binary.LittleEndian.PutUint64(over[32:], 1)
	if _, err := decode(over); err == nil {
		t.Error("more listed pages than the total accepted")
	}
	short := append([]byte(nil), enc...)
	binary.LittleEndian.PutUint64(short[32:], 3)
	if _, err := decode(short); err == nil {
		t.Error("self-contained snapshot missing a page accepted")
	}
}

// TestNewFromSnapshotRefusesDelta: restoring a partial image would read
// zeros for every page the root supplies, so it panics instead.
func TestNewFromSnapshotRefusesDelta(t *testing.T) {
	root := newRoot(1)
	dec := decodeAll(t, encode(NewFromImage(root).Snapshot()))
	defer func() {
		if recover() == nil {
			t.Error("NewFromSnapshot accepted an unresolved delta")
		}
	}()
	NewFromSnapshot(dec)
}

// FuzzDecodeSnapshot: no input makes DecodeSnapshot, Rebase or a restore
// panic, and every input they accept is canonical. A delta is first
// rebased over the seeds' root; the result then encodes back to the input
// byte for byte, and so does a memory restored from it. Seeded with small
// saves — deltas over a three-page root and a root-less image — whole,
// truncated and bit-flipped.
func FuzzDecodeSnapshot(f *testing.F) {
	root := newRoot(1)
	m := NewFromImage(root)
	m.WriteU64(0x20008, 0xfeed)
	m.WriteU64(0x90000, 0xbeef)
	// One bit away from the root page it replaces.
	bit := NewFromImage(root)
	b, _ := bit.Byte(0x30000)
	bit.SetByte(0x30000, b^0x01)
	rootless := New()
	rootless.WriteU64(0x10000, 1)
	for _, s := range []*Snapshot{m.Snapshot(), bit.Snapshot(), rootless.Snapshot(), NewFromImage(root).Snapshot()} {
		enc := encode(s)
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
		for _, off := range []int{0, 32, 40, 48, 56, len(enc) - 1} {
			if off < len(enc) {
				bad := append([]byte(nil), enc...)
				bad[off] ^= 0x01
				f.Add(bad)
			}
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := decode(b)
		if err != nil {
			return
		}
		if !s.Resolved() {
			if s, err = s.Rebase(root); err != nil {
				return
			}
		}
		if !bytes.Equal(encode(s), b) {
			t.Fatal("an accepted encoding does not re-encode to itself")
		}
		if !bytes.Equal(encode(NewFromSnapshot(s).Snapshot()), b) {
			t.Fatal("a memory restored from an accepted encoding saves other bytes")
		}
	})
}
