package cpu

// The store queue: each program's in-flight main-thread stores, oldest
// first, in progState.mainStores. It is the one record of them that
// disambiguation, forwarding and the helpers' committed view read (§4.1:
// the main thread disambiguates and forwards; slices never store and see
// only committed memory). Fetch pushes every main-thread store, retire
// pops the front and squash pops the back: main-thread retirement is in
// order and squashes tear down youngest-first, so the queue always holds
// exactly the main thread's stores in its fetch queue and ROB, in Seq
// order. CheckInvariants verifies that.

// subscribeToStores makes a fetched main-thread load wait for every older
// store whose address has not generated yet: each wakes the load when it
// issues (conservative, real disambiguation).
func (c *Core) subscribeToStores(ld *DynInst) {
	q := &ld.Thread.prog.mainStores
	for i := 0; i < q.len(); i++ {
		if s := q.at(i); !s.Issued {
			c.subscribe(ld, s)
		}
	}
}

// forwardingStore returns the youngest store older than the main-thread
// load ld that has issued, did not fault and overlaps it, or nil.
func (c *Core) forwardingStore(ld *DynInst) *DynInst {
	q := &ld.Thread.prog.mainStores
	for i := q.len() - 1; i >= 0; i-- {
		s := q.at(i)
		if s.Seq < ld.Seq && s.Issued && !s.Out.Fault &&
			overlaps(s.Out.Addr, s.Out.Size, ld.Out.Addr, ld.Out.Size) {
			return s
		}
	}
	return nil
}

func overlaps(a uint64, an int, b uint64, bn int) bool {
	return a < b+uint64(bn) && b < a+uint64(an)
}

// committedRead reconstructs the architecturally committed bytes at
// [addr, addr+size) of one program by peeling its in-flight main-thread
// stores off the speculative memory image, using their undo records. The
// records are applied youngest-first so the final value is the one from
// before the *oldest* in-flight store — i.e., the retired state. Every
// queued store holds its record: fetch executed it, and retire and squash
// pop it before anything reads the queue again.
func (p *progState) committedRead(addr uint64, size int) (uint64, bool) {
	v, ok := p.mem.Read(addr, size)
	for i := p.mainStores.len() - 1; i >= 0; i-- {
		s := p.mainStores.at(i)
		sa, sn := s.undoMemAddr, s.undoMemSize
		if sa == addr && sn == size {
			v = s.undoMemVal
			continue
		}
		if !overlaps(sa, sn, addr, size) {
			continue
		}
		// Partial overlap: splice the undo bytes in.
		for b := 0; b < size; b++ {
			ba := addr + uint64(b)
			if ba >= sa && ba < sa+uint64(sn) {
				old := byte(s.undoMemVal >> (8 * (ba - sa)))
				v = v&^(uint64(0xFF)<<(8*b)) | uint64(old)<<(8*b)
			}
		}
	}
	return v, ok
}
