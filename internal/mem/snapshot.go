package mem

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/wire"
)

// Snapshot is an immutable copy-on-write image of a Memory at one instant.
// Its pages are shared — never mutated — by every Memory derived from it
// via NewFromSnapshot, and by the Memory that produced it (which turns
// copy-on-write from the moment of the snapshot). That makes a Snapshot
// safe to restore from concurrently.
//
// A snapshot may descend from a root: the pristine image its memory was
// cloned from with NewFromImage (a workload's initial memory). Encode
// then encodes only the pages that differ from the root, and
// DecodeSnapshot returns such an encoding as an unresolved delta: it holds
// only those pages until Rebase overlays them on the root, and
// NewFromSnapshot refuses it.
type Snapshot struct {
	pages       map[uint64]*[PageSize]byte
	bytesMapped uint64
	root        *Snapshot

	// delta marks an unresolved decode; rootSum is the digest of the root
	// it needs and total its page count once resolved.
	delta   bool
	rootSum [sha256.Size]byte
	total   uint64

	// sum caches Digest: only a snapshot used as a root is ever hashed.
	sumOnce sync.Once
	sum     [sha256.Size]byte
}

// Snapshot captures the current contents. The receiver keeps working but
// copies any snapshotted page before its next write, so the returned image
// stays frozen. Cost is O(pages) pointer copies, not O(bytes).
func (m *Memory) Snapshot() *Snapshot {
	s := &Snapshot{
		pages:       make(map[uint64]*[PageSize]byte, len(m.pages)),
		bytesMapped: m.bytesMapped,
		root:        m.root,
	}
	if m.shared == nil {
		m.shared = make(map[uint64]struct{}, len(m.pages))
	}
	for pn, p := range m.pages {
		s.pages[pn] = p
		m.shared[pn] = struct{}{}
	}
	return s
}

// NewFromSnapshot returns a Memory whose initial contents are the
// snapshot's, sharing its pages copy-on-write, and whose root is the
// snapshot's root. Restoring is O(pages). It panics on an unresolved
// delta: that would be a memory missing every page its root supplies.
func NewFromSnapshot(s *Snapshot) *Memory {
	if s.delta {
		panic("mem: NewFromSnapshot of an unresolved delta (Rebase it first)")
	}
	m := &Memory{
		pages:       make(map[uint64]*[PageSize]byte, len(s.pages)),
		bytesMapped: s.bytesMapped,
		shared:      make(map[uint64]struct{}, len(s.pages)),
		root:        s.root,
	}
	for pn, p := range s.pages {
		m.pages[pn] = p
		m.shared[pn] = struct{}{}
	}
	return m
}

// NewFromImage is NewFromSnapshot that also declares img the root of the
// returned memory and of every snapshot taken from it.
func NewFromImage(img *Snapshot) *Memory {
	m := NewFromSnapshot(img)
	m.root = img
	return m
}

// Footprint returns the number of bytes of pages captured in the snapshot
// (for an unresolved delta, of the pages it will have once rebased).
func (s *Snapshot) Footprint() uint64 { return s.bytesMapped }

// Resolved reports whether the snapshot holds its whole image, i.e. it is
// not a decoded delta still waiting for Rebase.
func (s *Snapshot) Resolved() bool { return !s.delta }

// Digest returns the SHA-256 of the snapshot's contents — its page count,
// then page-number/contents pairs in ascending page order — computing it
// on first use. It identifies a root in encodings, so it depends on the
// contents alone, never on how the pages are shared.
func (s *Snapshot) Digest() [sha256.Size]byte {
	s.sumOnce.Do(func() {
		h := sha256.New()
		pns := s.sortedPages(nil)
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(len(pns))))
		for _, pn := range pns {
			h.Write(binary.LittleEndian.AppendUint64(nil, pn))
			h.Write(s.pages[pn][:])
		}
		h.Sum(s.sum[:0])
	})
	return s.sum
}

// rootDigest is the digest written ahead of the encoding: the root's, or
// all zeros for a snapshot without one.
func (s *Snapshot) rootDigest() (sum [sha256.Size]byte) {
	switch {
	case s.delta:
		return s.rootSum
	case s.root != nil:
		return s.root.Digest()
	}
	return sum
}

// sortedPages returns the page numbers for which keep (nil: every page)
// reports true, in ascending order.
func (s *Snapshot) sortedPages(keep func(pn uint64, p *[PageSize]byte) bool) []uint64 {
	pns := make([]uint64, 0, len(s.pages))
	for pn, p := range s.pages {
		if keep == nil || keep(pn, p) {
			pns = append(pns, pn)
		}
	}
	sort.Slice(pns, func(i, j int) bool { return pns[i] < pns[j] })
	return pns
}

// Encode writes the snapshot deterministically: the root's digest (all
// zeros without a root), the total page count, then the number of listed
// pages and their page-number/contents pairs in ascending page order.
// Only pages whose bytes differ from the root's are listed — a page still
// shared with the root is skipped without a compare — so the encoding
// depends on the contents alone. (A memory never unmaps a page, so every
// root page is present.)
func (s *Snapshot) Encode(w *wire.Writer) {
	var keep func(pn uint64, p *[PageSize]byte) bool
	if root := s.root; root != nil && !s.delta {
		keep = func(pn uint64, p *[PageSize]byte) bool {
			r := root.pages[pn]
			return r != p && (r == nil || *r != *p)
		}
	}
	pns := s.sortedPages(keep)
	sum := s.rootDigest()
	w.Raw(sum[:])
	total := uint64(len(s.pages))
	if s.delta {
		total = s.total
	}
	w.U64(total)
	w.U64(uint64(len(pns)))
	for _, pn := range pns {
		w.U64(pn)
		w.Raw(s.pages[pn][:])
	}
}

// DecodeSnapshot reads a snapshot Encode wrote; errors latch in r. Under
// an all-zero root digest the result is self-contained; otherwise it is an
// unresolved delta for Rebase. Page numbers must be strictly ascending, so
// every accepted encoding is the one Encode would write.
func DecodeSnapshot(r *wire.Reader) *Snapshot {
	s := &Snapshot{}
	copy(s.rootSum[:], r.Raw(sha256.Size))
	total := r.U64()
	n := r.Count(8 + PageSize)
	if r.Err() == nil && uint64(n) > total {
		r.Fail(fmt.Errorf("mem: snapshot lists %d pages of %d", n, total))
	}
	s.pages = make(map[uint64]*[PageSize]byte, n)
	for i, prev := 0, uint64(0); i < n && r.Err() == nil; i++ {
		pn := r.U64()
		if i > 0 && pn <= prev {
			r.Fail(fmt.Errorf("mem: snapshot page %#x out of order", pn))
		}
		prev = pn
		p := new([PageSize]byte)
		copy(p[:], r.Raw(PageSize))
		s.pages[pn] = p
	}
	if s.rootSum == ([sha256.Size]byte{}) {
		if r.Err() == nil && uint64(n) != total {
			r.Fail(fmt.Errorf("mem: self-contained snapshot lists %d pages of %d", n, total))
		}
	} else {
		s.delta, s.total = true, total
	}
	s.bytesMapped = total * PageSize
	return s
}

// Rebase resolves s against root, the image it was encoded over. It checks
// root's digest, that no delta page repeats the root's contents, and the
// resolved page count, then returns a snapshot that shares root's pages
// and overlays the delta's. A snapshot that is already resolved is
// returned as is once its root digest matches; a root-less snapshot
// matches only root == nil.
func (s *Snapshot) Rebase(root *Snapshot) (*Snapshot, error) {
	var want [sha256.Size]byte
	if root != nil {
		if root.delta {
			return nil, errors.New("mem: cannot rebase onto an unresolved delta")
		}
		want = root.Digest()
	}
	if got := s.rootDigest(); got != want {
		return nil, fmt.Errorf("mem: snapshot was encoded over root %x…, not %x…", got[:6], want[:6])
	}
	if !s.delta {
		return s, nil
	}
	r := &Snapshot{pages: make(map[uint64]*[PageSize]byte, len(root.pages)+len(s.pages)), root: root}
	for pn, p := range root.pages {
		r.pages[pn] = p
	}
	for pn, p := range s.pages {
		// Encode never lists a page that matches its root's, so a delta
		// that does is not an encoding Encode could have written.
		if q := root.pages[pn]; q != nil && *q == *p {
			return nil, fmt.Errorf("mem: snapshot page %#x repeats its root's contents", pn)
		}
		r.pages[pn] = p
	}
	if uint64(len(r.pages)) != s.total {
		return nil, fmt.Errorf("mem: snapshot resolves to %d pages, encoding says %d", len(r.pages), s.total)
	}
	r.bytesMapped = uint64(len(r.pages)) * PageSize
	return r, nil
}

// Equal reports whether two snapshots capture identical contents (two
// unresolved deltas are equal when they need the same root and carry the
// same pages).
func (s *Snapshot) Equal(o *Snapshot) bool {
	if s.delta != o.delta || s.rootSum != o.rootSum || s.total != o.total || len(s.pages) != len(o.pages) {
		return false
	}
	for pn, p := range s.pages {
		q, ok := o.pages[pn]
		if !ok || *p != *q {
			return false
		}
	}
	return true
}
