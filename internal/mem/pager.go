package mem

import "encoding/binary"

// pagerWays is the number of direct-mapped page-pointer cache entries a
// Pager holds (indexed by the page number's low bits). Workload data sits
// on a modest set of hot pages — arena, stack, globals — but
// pointer-chasing workloads (mcf-style) walk nodes scattered across the
// whole arena, so the cache must cover hundreds of pages to keep the
// page-table map off the hot path. 2048 entries is 48KB per Machine and captures
// almost every access.
const pagerWays = 2048

type pagerEntry struct {
	// pnR and pnW are the page numbers this entry serves for loads and
	// stores respectively; ^0 means no page. They differ when the page is
	// shared with a Snapshot (copy-on-write): readable through the cached
	// pointer but not writable. Separate load/store tags keep the hot-path
	// check to a single compare each — no nil or writable test.
	pnR, pnW uint64
	p        *[PageSize]byte
}

// noPage is a page-number tag that never matches a real page (real page
// numbers fit in 64-12 bits).
const noPage = ^uint64(0)

// Pager is an execution-loop view of a Memory that caches page lookups so
// same-page accesses skip the page-table map. It exists for the compiled
// functional engine: a straight-line run of loads and stores against hot
// pages touches the map once per page, not once per access.
//
// Semantics are identical to Memory.Read/Write, including fault reporting
// and cross-page assembly (which falls back to the Memory slow path).
//
// Contract: while a Pager is live, all stores to the Memory must go
// through it (loads may bypass). A direct Memory.Write can privatize a
// copy-on-write page behind the cache's back, leaving a stale pointer.
// Memory.Snapshot is safe at any point — it bumps the memory's generation
// counter, which every Pager access checks.
type Pager struct {
	m   *Memory
	gen uint64
	e   [pagerWays]pagerEntry
}

// Init points the pager at m and clears the cache. A zero Pager must be
// Init'ed before use.
func (pg *Pager) Init(m *Memory) {
	pg.m = m
	pg.flush()
}

// Mem returns the underlying memory.
func (pg *Pager) Mem() *Memory { return pg.m }

// Invalidate drops every cached page pointer. Call it after writing to the
// underlying Memory directly.
func (pg *Pager) Invalidate() { pg.flush() }

func (pg *Pager) flush() {
	for i := range pg.e {
		pg.e[i] = pagerEntry{pnR: noPage, pnW: noPage}
	}
	pg.gen = pg.m.gen
}

// fill caches the page containing pn for reading and returns it (nil when
// unmapped; unmapped pages are never negatively cached — they can
// materialize later).
func (pg *Pager) fill(pn uint64) *[PageSize]byte {
	if pg.gen != pg.m.gen {
		pg.flush()
	}
	p := pg.m.pages[pn]
	if p == nil {
		return nil
	}
	pnW := pn
	if len(pg.m.shared) != 0 {
		if _, sh := pg.m.shared[pn]; sh {
			pnW = noPage
		}
	}
	pg.e[pn&(pagerWays-1)] = pagerEntry{pnR: pn, pnW: pnW, p: p}
	return p
}

// fillWrite privatizes (copy-on-write) and caches the page containing pn
// as writable, materializing it if needed.
func (pg *Pager) fillWrite(pn uint64) *[PageSize]byte {
	if pg.gen != pg.m.gen {
		pg.flush()
	}
	p := pg.m.page(pn<<pageShift, true)
	pg.e[pn&(pagerWays-1)] = pagerEntry{pnR: pn, pnW: pn, p: p}
	return p
}

// Each Load/Store accessor below is its Try* probe (a cache hit on a
// current-generation entry, access within one page) followed by a *Slow
// fallback. The probes stay under the compiler's inlining budget (the
// *Slow call alone costs more than half of it), so in the compiled
// engine's dispatch loop the hit case compiles down to an index, two
// compares, and the bounded load/store, with no call; `hit == false` says
// nothing about faulting — retry through the full accessor. A hit on a
// cached entry implies the page is mapped, so pn >= 1 and the null-page
// check is subsumed by the tag compare (the null page is never cached, and
// noPage matches no address's page number).

// TryLoad64 reads 8 little-endian bytes if addr hits the cached page.
func (pg *Pager) TryLoad64(addr uint64) (v uint64, hit bool) {
	pn := addr >> pageShift
	off := addr & (PageSize - 1)
	e := &pg.e[pn&(pagerWays-1)]
	if e.pnR == pn && pg.gen == pg.m.gen && off <= PageSize-8 {
		return binary.LittleEndian.Uint64(e.p[off:]), true
	}
	return 0, false
}

// TryLoad32 reads 4 little-endian bytes, zero-extended, on a cache hit.
func (pg *Pager) TryLoad32(addr uint64) (v uint64, hit bool) {
	pn := addr >> pageShift
	off := addr & (PageSize - 1)
	e := &pg.e[pn&(pagerWays-1)]
	if e.pnR == pn && pg.gen == pg.m.gen && off <= PageSize-4 {
		return uint64(binary.LittleEndian.Uint32(e.p[off:])), true
	}
	return 0, false
}

// TryLoad8 reads one byte on a cache hit.
func (pg *Pager) TryLoad8(addr uint64) (v uint64, hit bool) {
	pn := addr >> pageShift
	e := &pg.e[pn&(pagerWays-1)]
	if e.pnR == pn && pg.gen == pg.m.gen {
		return uint64(e.p[addr&(PageSize-1)]), true
	}
	return 0, false
}

// TryStore64 writes 8 little-endian bytes if addr hits a writable page.
func (pg *Pager) TryStore64(addr, v uint64) (hit bool) {
	pn := addr >> pageShift
	off := addr & (PageSize - 1)
	e := &pg.e[pn&(pagerWays-1)]
	if e.pnW == pn && pg.gen == pg.m.gen && off <= PageSize-8 {
		binary.LittleEndian.PutUint64(e.p[off:], v)
		return true
	}
	return false
}

// TryStore32 writes 4 little-endian bytes on a writable hit.
func (pg *Pager) TryStore32(addr uint64, v uint32) (hit bool) {
	pn := addr >> pageShift
	off := addr & (PageSize - 1)
	e := &pg.e[pn&(pagerWays-1)]
	if e.pnW == pn && pg.gen == pg.m.gen && off <= PageSize-4 {
		binary.LittleEndian.PutUint32(e.p[off:], v)
		return true
	}
	return false
}

// TryStore8 writes one byte on a writable hit.
func (pg *Pager) TryStore8(addr uint64, v byte) (hit bool) {
	pn := addr >> pageShift
	e := &pg.e[pn&(pagerWays-1)]
	if e.pnW == pn && pg.gen == pg.m.gen {
		e.p[addr&(PageSize-1)] = v
		return true
	}
	return false
}

// Load64 reads 8 little-endian bytes at addr; ok is false on fault.
func (pg *Pager) Load64(addr uint64) (uint64, bool) {
	if v, hit := pg.TryLoad64(addr); hit {
		return v, true
	}
	return pg.load64Slow(addr)
}

func (pg *Pager) load64Slow(addr uint64) (uint64, bool) {
	off := addr & (PageSize - 1)
	if addr >= PageSize && off <= PageSize-8 {
		if p := pg.fill(addr >> pageShift); p != nil {
			return binary.LittleEndian.Uint64(p[off:]), true
		}
		return 0, false
	}
	return pg.m.Read(addr, 8)
}

// Load32 reads 4 little-endian bytes, zero-extended; ok is false on fault.
func (pg *Pager) Load32(addr uint64) (uint64, bool) {
	if v, hit := pg.TryLoad32(addr); hit {
		return v, true
	}
	return pg.load32Slow(addr)
}

func (pg *Pager) load32Slow(addr uint64) (uint64, bool) {
	off := addr & (PageSize - 1)
	if addr >= PageSize && off <= PageSize-4 {
		if p := pg.fill(addr >> pageShift); p != nil {
			return uint64(binary.LittleEndian.Uint32(p[off:])), true
		}
		return 0, false
	}
	return pg.m.Read(addr, 4)
}

// Load8 reads one byte; ok is false on fault.
func (pg *Pager) Load8(addr uint64) (uint64, bool) {
	if v, hit := pg.TryLoad8(addr); hit {
		return v, true
	}
	return pg.load8Slow(addr)
}

func (pg *Pager) load8Slow(addr uint64) (uint64, bool) {
	if addr >= PageSize {
		if p := pg.fill(addr >> pageShift); p != nil {
			return uint64(p[addr&(PageSize-1)]), true
		}
	}
	return pg.m.Read(addr, 1)
}

// Store64 writes 8 little-endian bytes; false on fault (null page).
func (pg *Pager) Store64(addr, v uint64) bool {
	return pg.TryStore64(addr, v) || pg.store64Slow(addr, v)
}

func (pg *Pager) store64Slow(addr, v uint64) bool {
	off := addr & (PageSize - 1)
	if addr >= PageSize && off <= PageSize-8 {
		binary.LittleEndian.PutUint64(pg.fillWrite(addr >> pageShift)[off:], v)
		return true
	}
	return pg.m.Write(addr, 8, v)
}

// Store32 writes 4 little-endian bytes; false on fault.
func (pg *Pager) Store32(addr uint64, v uint32) bool {
	return pg.TryStore32(addr, v) || pg.store32Slow(addr, v)
}

func (pg *Pager) store32Slow(addr uint64, v uint32) bool {
	off := addr & (PageSize - 1)
	if addr >= PageSize && off <= PageSize-4 {
		binary.LittleEndian.PutUint32(pg.fillWrite(addr >> pageShift)[off:], v)
		return true
	}
	return pg.m.Write(addr, 4, uint64(v))
}

// Store8 writes one byte; false on fault.
func (pg *Pager) Store8(addr uint64, v byte) bool {
	return pg.TryStore8(addr, v) || pg.store8Slow(addr, v)
}

func (pg *Pager) store8Slow(addr uint64, v byte) bool {
	if addr >= PageSize {
		pg.fillWrite(addr >> pageShift)[addr&(PageSize-1)] = v
		return true
	}
	return pg.m.Write(addr, 1, uint64(v))
}

// Load reads size bytes (1, 4, or 8) through the cache.
func (pg *Pager) Load(addr uint64, size int) (uint64, bool) {
	switch size {
	case 8:
		return pg.Load64(addr)
	case 4:
		return pg.Load32(addr)
	case 1:
		return pg.Load8(addr)
	}
	return pg.m.Read(addr, size)
}

// Store writes size bytes (1, 4, or 8) through the cache.
func (pg *Pager) Store(addr uint64, size int, v uint64) bool {
	switch size {
	case 8:
		return pg.Store64(addr, v)
	case 4:
		return pg.Store32(addr, uint32(v))
	case 1:
		return pg.Store8(addr, byte(v))
	}
	return pg.m.Write(addr, size, v)
}
