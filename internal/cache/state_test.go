package cache

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/wire"
)

// TestCacheStateValidLinesOnly: State lists only valid lines, and a cache
// whose array held other lines behaves, after SetState, exactly like the
// one the state was captured from — invalid lines carry nothing.
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
	st := src.State()
	valid := 0
	for _, l := range src.lines {
		if l.valid {
			valid++
		}
	}
	if len(st.Lines) != valid || st.NumLines != len(src.lines) {
		t.Fatalf("state lists %d of %d lines, cache has %d valid", len(st.Lines), st.NumLines, valid)
	}
	if err := dst.SetState(st); err != nil {
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
	if err := dst.SetState(src.State()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(src.lines, dst.lines) || src.clock != dst.clock {
		t.Error("PVB state did not round-trip")
	}
}

// TestCacheSetStateRejectsBadState: a line count or index that does not fit
// the array is an error.
func TestCacheSetStateRejectsBadState(t *testing.T) {
	c := MustCache("c", 4096, 2, 64)
	st := c.State()
	st.NumLines++
	if err := c.SetState(st); err == nil {
		t.Error("line-count mismatch accepted")
	}
	st = CacheState{NumLines: len(c.lines), Lines: []LineState{{Index: uint32(len(c.lines))}}}
	if err := c.SetState(st); err == nil {
		t.Error("out-of-range line index accepted")
	}
}

// warmHierarchy runs demand scans (which start prefetch streams), random
// demand and helper loads, stores and instruction fetches through a fresh
// hierarchy, then drains it to a quiesced point as a checkpoint would.
func warmHierarchy(t *testing.T) *Hierarchy {
	t.Helper()
	h := NewHierarchy(DefaultParams())
	rng := rand.New(rand.NewSource(5))
	now := uint64(0)
	for i := 0; i < 6000; i++ {
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

func encodeHier(s HierState) []byte {
	var w wire.Writer
	s.Encode(&w)
	return w.Bytes()
}

func decodeHier(b []byte) (HierState, error) {
	r := wire.NewReader(b)
	s := DecodeHierState(r)
	return s, r.Done()
}

// TestHierStateCodecRoundTrip: a warmed hierarchy's state decodes to
// itself, re-encodes to the same bytes, and restores into a fresh
// hierarchy that captures the same state; every strict prefix of the
// encoding is an error.
func TestHierStateCodecRoundTrip(t *testing.T) {
	st := warmHierarchy(t).State()
	if len(st.L1D.Lines) == 0 || len(st.PVB.Lines) == 0 || len(st.Origin) < 2 || st.MemFree == 0 {
		t.Fatalf("warm-up left too little state to test: %d L1D lines, %d PVB lines, %d origins, MemFree %d",
			len(st.L1D.Lines), len(st.PVB.Lines), len(st.Origin), st.MemFree)
	}
	enc := encodeHier(st)
	dec, err := decodeHier(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(dec, st) {
		t.Fatal("decoded state differs from the captured one")
	}
	if !bytes.Equal(encodeHier(dec), enc) {
		t.Error("re-encoding changed the bytes")
	}
	h := NewHierarchy(DefaultParams())
	if err := h.SetState(dec); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if !reflect.DeepEqual(h.State(), st) {
		t.Error("restored hierarchy captures a different state")
	}
	for n := 0; n < len(enc); n += 1 + n/64 {
		if _, err := decodeHier(enc[:n]); err == nil {
			t.Fatalf("%d-byte prefix of %d accepted", n, len(enc))
		}
	}
}

// TestHierStateCodecRejectsCorruption: a line index out of range or out of
// order, a dirty flag other than 0 or 1, origin lines out of order and an
// origin that is no prefetching agent are errors, so every accepted
// encoding is canonical.
func TestHierStateCodecRejectsCorruption(t *testing.T) {
	st := warmHierarchy(t).State()
	enc := encodeHier(st)
	// L1D leads: line count, listed-line count, then 21-byte lines
	// (index u32, tag u64, dirty u8, LRU u64).
	const line0, lineSize = 16, 21
	last := line0 + lineSize*(len(st.L1D.Lines)-1)
	origin0 := len(enc) - 8 - 9*len(st.Origin)
	for _, tc := range []struct {
		name string
		bad  func(b []byte)
	}{
		{"index out of range", func(b []byte) { binary.LittleEndian.PutUint32(b[last:], uint32(st.L1D.NumLines)) }},
		{"index repeated", func(b []byte) { copy(b[line0+lineSize:line0+lineSize+4], b[line0:line0+4]) }},
		{"dirty byte 2", func(b []byte) { b[line0+12] = 2 }},
		{"origin repeated", func(b []byte) { copy(b[origin0+9:origin0+17], b[origin0:origin0+8]) }},
		{"origin none", func(b []byte) { b[origin0+8] = byte(OriginNone) }},
	} {
		bad := append([]byte(nil), enc...)
		tc.bad(bad)
		if _, err := decodeHier(bad); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestHierStateRejectsNonResidentOrigin: an origin that names a line in
// neither the L1D nor the PVB decodes, but restoring it is an error.
func TestHierStateRejectsNonResidentOrigin(t *testing.T) {
	st := warmHierarchy(t).State()
	enc := encodeHier(st)
	// The last origin line, 8+9 bytes before the end, becomes one far
	// above every resident line.
	binary.LittleEndian.PutUint64(enc[len(enc)-8-9:], 0xfff0_0000_0000_0000)
	dec, err := decodeHier(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if err := NewHierarchy(DefaultParams()).SetState(dec); err == nil {
		t.Error("origin of a non-resident line restored")
	}
}
