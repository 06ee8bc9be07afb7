package cache

import (
	"strings"
	"testing"
)

// TestLineShiftValidation locks the power-of-two guard shared by every
// structure that derives a line shift. The prefetch/victim buffer used to
// spin forever on a non-power-of-two line size; now building it must panic
// with a clear message, and NewCache must return an error.
func TestLineShiftValidation(t *testing.T) {
	cases := []struct {
		lineBytes int
		shift     uint
		ok        bool
	}{
		{1, 0, true},
		{2, 1, true},
		{64, 6, true},
		{128, 7, true},
		{4096, 12, true},
		{0, 0, false},
		{-1, 0, false},
		{-64, 0, false},
		{3, 0, false},
		{48, 0, false},
		{96, 0, false},
		{65, 0, false},
	}
	for _, c := range cases {
		shift, err := lineShiftFor(c.lineBytes)
		if c.ok {
			if err != nil {
				t.Errorf("lineShiftFor(%d): unexpected error %v", c.lineBytes, err)
			} else if shift != c.shift {
				t.Errorf("lineShiftFor(%d) = %d, want %d", c.lineBytes, shift, c.shift)
			}
			continue
		}
		if err == nil {
			t.Errorf("lineShiftFor(%d): want error, got shift %d", c.lineBytes, shift)
		}
	}
}

// TestNewPVBPanicsOnBadLineSize: the PVB is a one-set Cache built by
// MustCache, which panics on a bad line size.
func TestNewPVBPanicsOnBadLineSize(t *testing.T) {
	for _, lineBytes := range []int{0, -1, 3, 48, 96} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("newPVB(64, %d): expected panic", lineBytes)
					return
				}
				if err, ok := r.(error); !ok || !strings.Contains(err.Error(), "power of two") {
					t.Errorf("newPVB(64, %d): panic %v lacks a clear message", lineBytes, r)
				}
			}()
			newPVB(64, lineBytes)
		}()
	}
	// Valid sizes must still construct.
	if b := newPVB(64, 64); b == nil || b.lineShift != 6 || b.sets != 1 || b.ways != 64 {
		t.Error("newPVB(64, 64) misconfigured")
	}
}

func TestNewCacheRejectsBadLineSize(t *testing.T) {
	for _, lineBytes := range []int{0, -1, 3, 48} {
		if _, err := NewCache("bad", 64<<10, 2, lineBytes); err == nil {
			t.Errorf("NewCache line=%d: want error", lineBytes)
		}
	}
}
