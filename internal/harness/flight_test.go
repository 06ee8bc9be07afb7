package harness

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// Concurrent callers for one key run compute once and share its value or
// error; exactly one call is a miss, and a later call is a hit.
func TestFlightSingleFlight(t *testing.T) {
	for _, wantErr := range []error{nil, errors.New("boom")} {
		var f flight[int]
		var calls, misses atomic.Int32
		release := make(chan struct{})
		compute := func() (int, error) {
			calls.Add(1)
			<-release // hold every other caller in the waiting path
			return 42, wantErr
		}
		const n = 16
		var wg sync.WaitGroup
		var started sync.WaitGroup
		started.Add(n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				started.Done()
				v, hit, err := f.do("k", compute)
				if !hit {
					misses.Add(1)
				}
				if v != 42 || err != wantErr {
					t.Errorf("do = %d, %v; want 42, %v", v, err, wantErr)
				}
			}()
		}
		started.Wait()
		close(release)
		wg.Wait()
		if calls.Load() != 1 || misses.Load() != 1 {
			t.Errorf("err=%v: compute ran %d times, %d misses; want 1 and 1", wantErr, calls.Load(), misses.Load())
		}
		v, hit, err := f.do("k", compute)
		if !hit || v != 42 || err != wantErr || calls.Load() != 1 {
			t.Errorf("later call = %d, hit %t, %v after %d computes", v, hit, err, calls.Load())
		}
		if _, hit, _ := f.do("other", func() (int, error) { return 0, nil }); hit {
			t.Error("first call for a new key reported a hit")
		}
	}
}
