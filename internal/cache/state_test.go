package cache

import (
	"math/rand"
	"reflect"
	"testing"
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
		src.Fill(a, rng.Intn(2) == 0)
		dst.Fill(a^0x5a5a0, true)
		if i%3 == 0 {
			src.Invalidate(uint64(rng.Intn(1 << 16)))
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
		va, vd, ve := src.Fill(a, false)
		wa, wd, we := dst.Fill(a, false)
		if va != wa || vd != wd || ve != we {
			t.Fatalf("fill %d (%#x) evicted differently after restore", i, a)
		}
	}
}

// TestPVBStateRoundTrip: the PVB shares the valid-line state.
func TestPVBStateRoundTrip(t *testing.T) {
	src, dst := NewPVB(8, 64), NewPVB(8, 64)
	for a := uint64(0); a < 12; a++ {
		src.Insert(a*64, a%2 == 0)
		dst.Insert(a*64+4096, true)
	}
	src.Extract(11 * 64)
	if err := dst.SetState(src.State()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(src.entries, dst.entries) || src.clock != dst.clock {
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
