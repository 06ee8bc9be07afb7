package harness

import "sync"

// flight is a single-flight cache: the first caller for a key computes the
// value, and every later or concurrent caller for that key waits for it and
// shares the value and the error. Safe for concurrent use; the zero value
// is ready.
//
// Callers on a bounded worker pool (Engine.fanOut) take their pool slot
// before calling do, so a key's computing caller always holds a slot and
// makes progress: a waiter can never starve it of the last one.
type flight[V any] struct {
	mu    sync.Mutex
	calls map[string]*flightCall[V]
}

type flightCall[V any] struct {
	done chan struct{} // closed when v/err are valid
	v    V
	err  error
}

// do returns key's value, calling compute only if no earlier call for key
// did. hit reports whether the value came from such an earlier call.
func (f *flight[V]) do(key string, compute func() (V, error)) (v V, hit bool, err error) {
	f.mu.Lock()
	if c, ok := f.calls[key]; ok {
		f.mu.Unlock()
		<-c.done
		return c.v, true, c.err
	}
	if f.calls == nil {
		f.calls = make(map[string]*flightCall[V])
	}
	c := &flightCall[V]{done: make(chan struct{})}
	f.calls[key] = c
	f.mu.Unlock()

	c.v, c.err = compute()
	close(c.done)
	return c.v, false, c.err
}
