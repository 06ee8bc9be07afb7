// Package mem implements the sparse, paged, byte-addressable memory shared
// by every thread context in the simulated machine. Pages materialize on
// first write; reads of unmapped pages return zero and report the access as
// unmapped so the CPU can raise a fault where it matters (helper threads
// terminate on faults; wrong-path main-thread accesses ignore them).
//
// The null page (addresses below PageSize) never maps: dereferencing a null
// pointer always faults, which is how the paper's linked-list slices
// self-terminate.
package mem

import "encoding/binary"

// PageSize is the size of one memory page in bytes.
const PageSize = 4096

const pageShift = 12 // log2(PageSize)

// Memory is a sparse 64-bit address space. The zero value is not usable;
// call New.
type Memory struct {
	pages map[uint64]*[PageSize]byte
	// bytesMapped counts materialized pages for footprint reporting.
	bytesMapped uint64
	// shared marks pages whose backing array is owned by a Snapshot and
	// must be copied before the first write (copy-on-write). Nil until the
	// memory participates in a snapshot, so ordinary runs never consult it.
	shared map[uint64]struct{}
	// root is the pristine image this memory descends from (see
	// NewFromImage); nil for a memory built from scratch.
	root *Snapshot
}

// New returns an empty memory.
func New() *Memory {
	return &Memory{pages: make(map[uint64]*[PageSize]byte)}
}

func (m *Memory) page(addr uint64, create bool) *[PageSize]byte {
	pn := addr >> pageShift
	p := m.pages[pn]
	if p == nil {
		if create {
			p = new([PageSize]byte)
			m.pages[pn] = p
			m.bytesMapped += PageSize
		}
		return p
	}
	if create && len(m.shared) != 0 {
		if _, ok := m.shared[pn]; ok {
			cp := new([PageSize]byte)
			*cp = *p
			m.pages[pn] = cp
			delete(m.shared, pn)
			return cp
		}
	}
	return p
}

// Mapped reports whether addr lies on a materialized, non-null page.
func (m *Memory) Mapped(addr uint64) bool {
	if addr < PageSize {
		return false
	}
	return m.pages[addr>>pageShift] != nil
}

// Footprint returns the number of bytes of materialized pages.
func (m *Memory) Footprint() uint64 { return m.bytesMapped }

// Byte reads one byte. ok is false for the null page or unmapped pages
// (the value is then 0).
func (m *Memory) Byte(addr uint64) (byte, bool) {
	if addr < PageSize {
		return 0, false
	}
	p := m.page(addr, false)
	if p == nil {
		return 0, false
	}
	return p[addr&(PageSize-1)], true
}

// SetByte writes one byte, materializing the page. Writes to the null
// page are discarded and report false.
func (m *Memory) SetByte(addr uint64, v byte) bool {
	if addr < PageSize {
		return false
	}
	p := m.page(addr, true)
	p[addr&(PageSize-1)] = v
	return true
}

// Read reads size bytes (1, 2, 4, or 8) little-endian, zero-extended. ok is
// false if any byte faulted; faulting bytes read as zero.
func (m *Memory) Read(addr uint64, size int) (uint64, bool) {
	// Fast path: access within one page.
	if addr >= PageSize && addr&(PageSize-1) <= PageSize-uint64(size) {
		p := m.page(addr, false)
		if p == nil {
			return 0, false
		}
		off := addr & (PageSize - 1)
		switch size {
		case 1:
			return uint64(p[off]), true
		case 2:
			return uint64(binary.LittleEndian.Uint16(p[off:])), true
		case 4:
			return uint64(binary.LittleEndian.Uint32(p[off:])), true
		case 8:
			return binary.LittleEndian.Uint64(p[off:]), true
		}
	}
	var v uint64
	ok := true
	for i := 0; i < size; i++ {
		b, bok := m.Byte(addr + uint64(i))
		ok = ok && bok
		v |= uint64(b) << (8 * i)
	}
	return v, ok
}

// Write writes size bytes (1, 2, 4, or 8) little-endian. ok is false if any
// byte faulted.
func (m *Memory) Write(addr uint64, size int, v uint64) bool {
	if addr >= PageSize && addr&(PageSize-1) <= PageSize-uint64(size) {
		p := m.page(addr, true)
		off := addr & (PageSize - 1)
		switch size {
		case 1:
			p[off] = byte(v)
			return true
		case 2:
			binary.LittleEndian.PutUint16(p[off:], uint16(v))
			return true
		case 4:
			binary.LittleEndian.PutUint32(p[off:], uint32(v))
			return true
		case 8:
			binary.LittleEndian.PutUint64(p[off:], v)
			return true
		}
	}
	ok := true
	for i := 0; i < size; i++ {
		ok = m.SetByte(addr+uint64(i), byte(v>>(8*i))) && ok
	}
	return ok
}

// ReadU64 reads an 8-byte word, returning 0 for faulting addresses.
func (m *Memory) ReadU64(addr uint64) uint64 {
	v, _ := m.Read(addr, 8)
	return v
}

// WriteU64 writes an 8-byte word.
func (m *Memory) WriteU64(addr uint64, v uint64) { m.Write(addr, 8, v) }

// WriteBytes copies b into memory starting at addr.
func (m *Memory) WriteBytes(addr uint64, b []byte) {
	for len(b) > 0 {
		p := m.page(addr, true)
		off := addr & (PageSize - 1)
		n := copy(p[off:], b)
		b = b[n:]
		addr += uint64(n)
	}
}

// ReadBytes copies n bytes starting at addr into a fresh slice; unmapped
// bytes read as zero.
func (m *Memory) ReadBytes(addr uint64, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i], _ = m.Byte(addr + uint64(i))
	}
	return out
}
