package bpred

import (
	"bytes"
	"testing"

	"repro/internal/wire"
)

// fuzzRASEntries is the small stack the RAS fuzzer saves and loads.
const fuzzRASEntries = 8

// saveRAS returns r's checkpoint section.
func saveRAS(r *RAS) []byte {
	var w wire.Writer
	r.Save(&w)
	return w.Bytes()
}

// loadRAS loads b into a fresh fuzzRASEntries-entry stack, requiring
// that it consumes every byte.
func loadRAS(b []byte) (*RAS, error) {
	r := NewRAS(fuzzRASEntries)
	rd := wire.NewReader(b)
	if err := r.Load(rd); err != nil {
		return nil, err
	}
	return r, rd.Done()
}

// FuzzRASLoad: no input makes Load — or the pushes and pops of the stack
// it restores — panic, and every input Load accepts (with nothing left
// over) is canonical: Save writes it back byte for byte. Seeded with small
// stacks' encodings (empty, wrapped past capacity, underflowed), whole,
// truncated and bit-flipped.
func FuzzRASLoad(f *testing.F) {
	empty := NewRAS(fuzzRASEntries)
	wrapped := NewRAS(fuzzRASEntries)
	for i := uint64(1); i <= fuzzRASEntries+3; i++ {
		wrapped.Push(i << 4)
	}
	under := NewRAS(fuzzRASEntries)
	under.Push(0x40)
	under.Pop()
	under.Pop()
	for _, r := range []*RAS{empty, wrapped, under} {
		enc := saveRAS(r)
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
		for _, off := range []int{0, 8, len(enc) - 8, len(enc) - 1} {
			bad := append([]byte(nil), enc...)
			bad[off] ^= 0x80
			f.Add(bad)
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := loadRAS(b)
		if err != nil {
			return
		}
		if !bytes.Equal(saveRAS(r), b) {
			t.Fatal("an accepted encoding does not re-save to itself")
		}
		m := r.Mark()
		r.Push(0x1000)
		r.Pop()
		r.Pop()
		r.Restore(m)
		r.Pop()
	})
}
