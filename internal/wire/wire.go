// Package wire is the one binary codec behind the warm checkpoints: a
// little-endian Writer, and a Reader that latches its first error so a
// decoder checks once, at the end. Every checkpoint section — cache
// hierarchy, correlator, return-address stacks, predictor blobs, memory
// pages and the on-disk container — reads and writes its bytes through it.
//
// Readers are written for untrusted input: a short stream, a count that
// cannot fit in the bytes that remain, a bool byte other than 0 or 1 and
// leftover bytes are all errors, never panics or huge allocations.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// ErrTruncated reports a read past the end of the input.
var ErrTruncated = errors.New("wire: truncated")

// Writer appends little-endian primitives to a buffer. The zero value is
// an empty writer.
type Writer struct{ b []byte }

// Bytes returns the bytes written so far.
func (w *Writer) Bytes() []byte { return w.b }

// U8, U16, U32 and U64 write v little-endian.
func (w *Writer) U8(v uint8)   { w.b = append(w.b, v) }
func (w *Writer) U16(v uint16) { w.b = binary.LittleEndian.AppendUint16(w.b, v) }
func (w *Writer) U32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *Writer) U64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }

// Bool writes v as one byte, 0 or 1.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Raw writes p as is.
func (w *Writer) Raw(p []byte) { w.b = append(w.b, p...) }

// Blob writes p behind a u64 length prefix.
func (w *Writer) Blob(p []byte) {
	w.U64(uint64(len(p)))
	w.Raw(p)
}

// Seal appends an IEEE CRC32 of everything written and returns the
// result; Open checks and strips it.
func (w *Writer) Seal() []byte {
	w.U32(crc32.ChecksumIEEE(w.b))
	return w.b
}

// Reader reads little-endian primitives from b. After the first error
// every read returns a zero value, so a decoder may read a whole
// structure and check Err (or Done) once.
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a reader over b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Open checks the CRC32 trailer Seal appended to b and returns a reader
// over the payload before it.
func Open(b []byte) (*Reader, error) {
	if len(b) < 4 {
		return nil, ErrTruncated
	}
	payload := b[:len(b)-4]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(b[len(payload):]) {
		return nil, errors.New("wire: CRC mismatch")
	}
	return NewReader(payload), nil
}

// Err returns the first error, or nil.
func (r *Reader) Err() error { return r.err }

// Fail records err unless an error is already recorded. Decoders use it
// for structural checks of their own (ordering, ranges).
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

// Len is the number of unread bytes.
func (r *Reader) Len() int { return len(r.b) }

// Done returns the first error, or an error if unread bytes remain.
func (r *Reader) Done() error {
	if r.err == nil && len(r.b) != 0 {
		r.err = fmt.Errorf("wire: %d trailing bytes", len(r.b))
	}
	return r.err
}

// Raw returns the next n bytes, aliasing the input, or nil on a short
// stream.
func (r *Reader) Raw(n int) []byte {
	if r.err != nil || n < 0 || n > len(r.b) {
		r.Fail(ErrTruncated)
		return nil
	}
	v := r.b[:n:n]
	r.b = r.b[n:]
	return v
}

// U8, U16, U32 and U64 read one little-endian value; zero once the
// stream has failed.
func (r *Reader) U8() uint8   { return r.fixed(1)[0] }
func (r *Reader) U16() uint16 { return binary.LittleEndian.Uint16(r.fixed(2)) }
func (r *Reader) U32() uint32 { return binary.LittleEndian.Uint32(r.fixed(4)) }
func (r *Reader) U64() uint64 { return binary.LittleEndian.Uint64(r.fixed(8)) }

var zeros [8]byte

// fixed is Raw for n ≤ 8 that returns zeros instead of nil on failure.
func (r *Reader) fixed(n int) []byte {
	if p := r.Raw(n); p != nil {
		return p
	}
	return zeros[:n]
}

// Bool reads one byte and rejects any value but 0 and 1, so every
// accepted stream is the one Writer.Bool wrote.
func (r *Reader) Bool() bool {
	switch v := r.U8(); v {
	case 0:
		return false
	case 1:
		return true
	default:
		r.Fail(fmt.Errorf("wire: bool byte %d", v))
		return false
	}
}

// Expect reads a u64 and fails unless it equals want: decoders use it
// for sizes the configuration fixes. what names the value in the error.
func (r *Reader) Expect(want uint64, what string) {
	if v := r.U64(); r.err == nil && v != want {
		r.Fail(fmt.Errorf("wire: state has %d %s, want %d", v, what, want))
	}
}

// Count reads an element count and rejects one that cannot fit in the
// unread bytes at minSize bytes per element, so a corrupt count fails
// here instead of driving a huge allocation. minSize must not exceed the
// smallest encoding of one element.
func (r *Reader) Count(minSize int) int {
	n := r.U64()
	if r.err == nil && n > uint64(len(r.b)/minSize) {
		r.Fail(fmt.Errorf("wire: count %d exceeds the %d bytes left", n, len(r.b)))
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// Blob reads a u64-length-prefixed byte string into a fresh slice.
func (r *Reader) Blob() []byte {
	p := r.Raw(r.Count(1))
	if r.err != nil {
		return nil
	}
	return append([]byte(nil), p...)
}
