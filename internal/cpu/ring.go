package cpu

// instRing is a FIFO of in-flight instructions over a power-of-two backing
// array — the ROB, the fetch queues, and the store queues. The
// previous representation drained by re-slicing (q = q[1:]), which retains
// the full backing array for the life of the thread and regrows it on
// every wrap; the ring allocates once and nils slots as instructions
// leave, so the cycle loop neither regrows queues nor pins recycled
// instructions.
type instRing struct {
	buf  []*DynInst
	head int
	n    int
}

func newInstRing(capHint int) instRing {
	c := 1
	for c < capHint {
		c <<= 1
	}
	return instRing{buf: make([]*DynInst, c)}
}

func (r *instRing) len() int { return r.n }

// at returns the i-th entry from the front (0 = oldest).
func (r *instRing) at(i int) *DynInst { return r.buf[(r.head+i)&(len(r.buf)-1)] }

func (r *instRing) front() *DynInst { return r.buf[r.head] }

func (r *instRing) back() *DynInst { return r.at(r.n - 1) }

func (r *instRing) pushBack(d *DynInst) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = d
	r.n++
}

func (r *instRing) popFront() *DynInst {
	d := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return d
}

func (r *instRing) popBack() *DynInst {
	i := (r.head + r.n - 1) & (len(r.buf) - 1)
	d := r.buf[i]
	r.buf[i] = nil
	r.n--
	return d
}

// grow doubles the backing array — a one-time event when a configuration
// outruns the sizing hint, never steady-state.
func (r *instRing) grow() {
	nb := make([]*DynInst, 2*len(r.buf))
	for i := 0; i < r.n; i++ {
		nb[i] = r.at(i)
	}
	r.buf, r.head = nb, 0
}

// clear drops every entry (helper-context reuse).
func (r *instRing) clear() {
	for i := 0; i < r.n; i++ {
		r.buf[(r.head+i)&(len(r.buf)-1)] = nil
	}
	r.head, r.n = 0, 0
}
