package bpred

// Every SaveState blob is a wire stream sealed with a CRC32 trailer
// (wire.Writer.Seal), so a single flipped byte anywhere in a stored
// predictor section is caught by LoadState itself — the checkpoint
// container does not need to know any predictor's layout to validate it.

import (
	"fmt"

	"repro/internal/wire"
)

// openBlob checks a blob's CRC trailer and returns a reader over its
// payload. kind labels errors ("yags", "value", ...).
func openBlob(kind string, b []byte) (*wire.Reader, error) {
	r, err := wire.Open(b)
	if err != nil {
		return nil, fmt.Errorf("bpred: %s: state blob: %w", kind, err)
	}
	return r, nil
}

// closeBlob fails if any read of the blob went wrong or bytes remain.
func closeBlob(kind string, r *wire.Reader) error {
	if err := r.Done(); err != nil {
		return fmt.Errorf("bpred: %s: state blob: %w", kind, err)
	}
	return nil
}

// readCtr reads a 2-bit saturating counter. A byte above 3 is a counter
// no SaveState writes, so it fails the blob.
func readCtr(r *wire.Reader) ctr {
	v := r.U8()
	if v > 3 {
		r.Fail(fmt.Errorf("bpred: 2-bit counter byte %d", v))
		return 0
	}
	return ctr(v)
}

// readCond reads a branch condition, failing the blob on an undefined one.
func readCond(r *wire.Reader) Cond {
	c := Cond(r.U8())
	if c > CondGE {
		r.Fail(fmt.Errorf("bpred: branch condition byte %d", c))
		return CondNone
	}
	return c
}
