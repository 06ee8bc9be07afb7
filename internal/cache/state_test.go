package cache

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/wire"
)

// saveCache returns c's saved line array.
func saveCache(c *Cache) []byte {
	var w wire.Writer
	c.save(&w)
	return w.Bytes()
}

// loadCache loads b into c; trailing bytes are an error.
func loadCache(c *Cache, b []byte) error {
	r := wire.NewReader(b)
	c.load(r)
	return r.Done()
}

// TestCacheStateValidLinesOnly: save lists only valid lines, and a cache
// whose array held other lines behaves, after load, exactly like the one
// it was saved from — invalid lines carry nothing.
func TestCacheStateValidLinesOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	src := MustCache("src", 8192, 2, 64)
	dst := MustCache("dst", 8192, 2, 64)
	for i := 0; i < 300; i++ {
		a := uint64(rng.Intn(1 << 16))
		src.Fill(a, rng.Intn(2) == 0, OriginNone)
		dst.Fill(a^0x5a5a0, true, OriginNone)
		if i%3 == 0 {
			src.Extract(uint64(rng.Intn(1 << 16)))
		}
	}
	enc := saveCache(src)
	valid := 0
	for _, l := range src.lines {
		if l.valid {
			valid++
		}
	}
	// Line count, listed-line count, 21-byte lines, clock.
	if n := binary.LittleEndian.Uint64(enc[8:]); int(n) != valid || len(enc) != 24+21*valid {
		t.Fatalf("save lists %d lines in %d bytes, cache has %d valid", n, len(enc), valid)
	}
	if err := loadCache(dst, enc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(src.lines, dst.lines) {
		t.Fatal("restored line array differs from the source")
	}
	for i := 0; i < 2000; i++ {
		a := uint64(rng.Intn(1 << 16))
		if src.Access(a, false) != dst.Access(a, false) {
			t.Fatalf("access %d (%#x) diverged after restore", i, a)
		}
		va, vd, ve := src.Fill(a, false, OriginNone)
		wa, wd, we := dst.Fill(a, false, OriginNone)
		if va != wa || vd != wd || ve != we {
			t.Fatalf("fill %d (%#x) evicted differently after restore", i, a)
		}
	}
}

// TestPVBStateRoundTrip: the PVB shares the valid-line state.
func TestPVBStateRoundTrip(t *testing.T) {
	src, dst := newPVB(8, 64), newPVB(8, 64)
	for a := uint64(0); a < 12; a++ {
		src.Fill(a*64, a%2 == 0, OriginNone)
		dst.Fill(a*64+4096, true, OriginNone)
	}
	src.Extract(11 * 64)
	if err := loadCache(dst, saveCache(src)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(src.lines, dst.lines) || src.clock != dst.clock {
		t.Error("PVB state did not round-trip")
	}
}

// TestCacheSetStateRejectsBadState: a line count or index that does not fit
// the array is an error at load.
func TestCacheSetStateRejectsBadState(t *testing.T) {
	c := MustCache("c", 4096, 2, 64)
	c.Fill(0x1000, false, OriginNone)
	enc := saveCache(c)
	bad := append([]byte(nil), enc...)
	binary.LittleEndian.PutUint64(bad, uint64(len(c.lines)+1))
	if err := loadCache(c, bad); err == nil {
		t.Error("line-count mismatch accepted")
	}
	bad = append([]byte(nil), enc...)
	binary.LittleEndian.PutUint32(bad[16:], uint32(len(c.lines)))
	if err := loadCache(c, bad); err == nil {
		t.Error("out-of-range line index accepted")
	}
}

// warmHierarchy runs demand scans (which start prefetch streams), random
// demand and helper loads, stores and instruction fetches through a fresh
// hierarchy of p's geometry, then drains it to a quiesced point as a
// checkpoint would.
func warmHierarchy(t testing.TB, p Params, accesses int) *Hierarchy {
	t.Helper()
	h := NewHierarchy(p)
	rng := rand.New(rand.NewSource(5))
	now := uint64(0)
	for i := 0; i < accesses; i++ {
		switch rng.Intn(4) {
		case 0:
			h.Access(0x400000+uint64(i)*64, false, KindDemand, now)
		case 1:
			h.Access(uint64(rng.Intn(1<<22)), rng.Intn(3) == 0, KindDemand, now)
		case 2:
			h.Access(uint64(rng.Intn(1<<22)), false, KindHelper, now)
		default:
			h.StoreRetire(uint64(rng.Intn(1<<20)), now)
			h.FetchAccess(0x10000+uint64(rng.Intn(1<<16)), now)
		}
		now += 3
		h.Tick(now)
	}
	for !h.Quiesced(now) {
		now++
		h.Tick(now)
	}
	if err := h.PruneFills(now); err != nil {
		t.Fatal(err)
	}
	return h
}

// smallParams is a tiny hierarchy, as in the CPU's small-checkpoint
// tests: 8-line L1D and L1I, 16-line L2, 4-entry PVB, 2 streams. It saves
// to well under 1 KB, so a fuzzer gets through many mutations a second.
func smallParams() Params {
	p := DefaultParams()
	p.L1Bytes, p.ICBytes, p.L2Bytes = 512, 512, 2048
	p.PVBEntries, p.Streams, p.WriteBufEntries = 4, 2, 4
	return p
}

func saveHier(h *Hierarchy) []byte {
	var w wire.Writer
	h.Save(&w)
	return w.Bytes()
}

// loadHier loads b into a fresh hierarchy of p's geometry; trailing bytes
// are an error.
func loadHier(p Params, b []byte) (*Hierarchy, error) {
	h := NewHierarchy(p)
	r := wire.NewReader(b)
	if err := h.Load(r); err != nil {
		return nil, err
	}
	return h, r.Done()
}

// origins counts the L1D and PVB lines that carry an origin.
func origins(h *Hierarchy) int {
	n := 0
	for _, c := range []*Cache{h.L1D, h.PVB} {
		for _, l := range c.lines {
			if l.valid && l.orig != OriginNone {
				n++
			}
		}
	}
	return n
}

// TestHierStateCodecRoundTrip: a warmed hierarchy's save loads into a
// fresh hierarchy whose lines, streams and bus cursor equal the original's
// and which saves the same bytes; every strict prefix of the encoding is
// an error.
func TestHierStateCodecRoundTrip(t *testing.T) {
	src := warmHierarchy(t, DefaultParams(), 6000)
	validL1D, validPVB := 0, 0
	for _, l := range src.L1D.lines {
		if l.valid {
			validL1D++
		}
	}
	for _, l := range src.PVB.lines {
		if l.valid {
			validPVB++
		}
	}
	if validL1D == 0 || validPVB == 0 || origins(src) < 2 || src.memFree == 0 {
		t.Fatalf("warm-up left too little state to test: %d L1D lines, %d PVB lines, %d origins, memFree %d",
			validL1D, validPVB, origins(src), src.memFree)
	}
	enc := saveHier(src)
	h, err := loadHier(DefaultParams(), enc)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	for _, c := range [][2]*Cache{{src.L1D, h.L1D}, {src.L1I, h.L1I}, {src.L2, h.L2}, {src.PVB, h.PVB}} {
		if !reflect.DeepEqual(c[0].lines, c[1].lines) || c[0].clock != c[1].clock {
			t.Errorf("%s did not round-trip", c[0].name)
		}
	}
	if !reflect.DeepEqual(src.Pref.streams, h.Pref.streams) || src.Pref.clock != h.Pref.clock || src.memFree != h.memFree {
		t.Error("stream table or bus cursor did not round-trip")
	}
	if !bytes.Equal(saveHier(h), enc) {
		t.Error("re-saving changed the bytes")
	}
	for n := 0; n < len(enc); n += 1 + n/64 {
		if _, err := loadHier(DefaultParams(), enc[:n]); err == nil {
			t.Fatalf("%d-byte prefix of %d accepted", n, len(enc))
		}
	}
}

// TestHierStateCodecRejectsCorruption: a line index out of range or out of
// order, a line outside its tag's set or repeating a tag in its set, a
// dirty flag other than 0 or 1, a stream table of another size,
// origin lines out of order or not line-aligned and an origin that is no
// prefetching agent are errors at Load, so every accepted encoding is
// canonical.
func TestHierStateCodecRejectsCorruption(t *testing.T) {
	h := warmHierarchy(t, DefaultParams(), 6000)
	enc := saveHier(h)
	// L1D leads: line count, listed-line count, then 21-byte lines
	// (index u32, tag u64, dirty u8, LRU u64).
	const line0, lineSize = 16, 21
	nL1D := int(binary.LittleEndian.Uint64(enc[8:]))
	last := line0 + lineSize*(nL1D-1)
	// The origins close the encoding, 9 bytes each before the bus cursor;
	// the stream table sits before their count, after the PVB's clock.
	origin0 := len(enc) - 8 - 9*origins(h)
	streams := origin0 - 8 - 8 - 25*len(h.Pref.streams) - 8
	for _, tc := range []struct {
		name string
		bad  func(b []byte)
	}{
		{"index out of range", func(b []byte) { binary.LittleEndian.PutUint32(b[last:], uint32(len(h.L1D.lines))) }},
		{"index repeated", func(b []byte) { copy(b[line0+lineSize:line0+lineSize+4], b[line0:line0+4]) }},
		{"dirty byte 2", func(b []byte) { b[line0+12] = 2 }},
		{"tag outside its set", func(b []byte) { b[line0+4] ^= 1 }},
		{"tag repeated in a set", func(b []byte) { copy(b[line0+lineSize+4:line0+lineSize+12], b[line0+4:line0+12]) }},
		{"stream table resized", func(b []byte) { binary.LittleEndian.PutUint64(b[streams:], uint64(len(h.Pref.streams)-1)) }},
		{"origin repeated", func(b []byte) { copy(b[origin0+9:origin0+17], b[origin0:origin0+8]) }},
		{"origin none", func(b []byte) { b[origin0+8] = byte(OriginNone) }},
		{"origin not line-aligned", func(b []byte) { b[origin0] |= 1 }},
	} {
		bad := append([]byte(nil), enc...)
		tc.bad(bad)
		if _, err := loadHier(DefaultParams(), bad); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestHierStateRejectsNonResidentOrigin: an origin that names a line in
// neither the L1D nor the PVB is an error at Load.
func TestHierStateRejectsNonResidentOrigin(t *testing.T) {
	enc := saveHier(warmHierarchy(t, DefaultParams(), 6000))
	// The last origin line, 8+9 bytes before the end, becomes one far
	// above every resident line.
	binary.LittleEndian.PutUint64(enc[len(enc)-8-9:], 0xfff0_0000_0000_0000)
	if _, err := loadHier(DefaultParams(), enc); err == nil {
		t.Error("origin of a non-resident line restored")
	}
}

// FuzzHierarchyLoad: no input makes Load panic, and every input Load
// accepts (with nothing left over) is canonical — Save writes it back
// byte for byte. Seeded with a small warmed hierarchy's save, whole,
// truncated and bit-flipped.
func FuzzHierarchyLoad(f *testing.F) {
	p := smallParams()
	enc := saveHier(warmHierarchy(f, p, 400))
	f.Add(enc)
	f.Add(enc[:len(enc)/2])
	for _, off := range []int{0, 16, 20, len(enc) / 2, len(enc) - 9, len(enc) - 1} {
		bad := append([]byte(nil), enc...)
		bad[off] ^= 0x01
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		h, err := loadHier(p, b)
		if err != nil {
			return
		}
		if !bytes.Equal(saveHier(h), b) {
			t.Fatal("an accepted encoding does not re-save to itself")
		}
	})
}
