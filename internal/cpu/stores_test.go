package cpu

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/mem"
)

// storeArena is where the store-rule kernels read and write.
const storeArena = uint64(0x40000)

// storeRuleCore builds a core over a straight-line kernel: r27 holds
// storeArena, then body emits the instructions under test, then HALT.
// The arena's first two words hold known bytes.
func storeRuleCore(t *testing.T, body func(b *asm.Builder)) *Core {
	t.Helper()
	b := asm.NewBuilder(0x1000)
	b.Li(27, int64(storeArena))
	body(b)
	b.Halt()
	p := b.MustBuild()
	im, err := asm.NewImage(p)
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New()
	m.WriteU64(storeArena, 0x8877665544332211)
	m.WriteU64(storeArena+8, 0xFFEEDDCCBBAA9988)
	return MustNew(Config4Wide(), im, m, p.Base, nil)
}

// fetchAndDispatch fetches the main thread's whole straight-line kernel
// (executing it at fetch) and moves it into the ROB without issuing
// anything. It returns the instructions in program order, HALT included.
func fetchAndDispatch(t *testing.T, c *Core) []*DynInst {
	t.Helper()
	m := c.main
	for m.Fetching {
		c.fetchOne(m, c.progs[0].pcs.at(m.PC), m.PC)
	}
	c.now += frontLatency
	c.dispatchStage()
	if m.fetchq.len() != 0 {
		t.Fatalf("%d instructions left undispatched", m.fetchq.len())
	}
	insts := make([]*DynInst, m.rob.len())
	for i := range insts {
		insts[i] = m.rob.at(i)
	}
	return insts
}

// TestStoreQueueRules pins the three rules the store queue serves: store
// to load forwarding, load-store disambiguation and the helpers'
// committed view. No workload or generated program issues a narrow
// store, so these kernels are the only core-level cover for one.
func TestStoreQueueRules(t *testing.T) {
	t.Run("forwarding", testForwardingPicksYoungestOlderIssuedStore)
	t.Run("disambiguation", testLoadWaitsForOlderUnissuedStore)
	t.Run("committed-read", testCommittedReadPeelsInFlightStores)
}

// A main-thread load forwards from the youngest store older than it that
// has issued and overlaps it — never from a younger store, an unissued
// one, or one whose bytes it does not touch, whatever the widths involved.
func testForwardingPicksYoungestOlderIssuedStore(t *testing.T) {
	c := storeRuleCore(t, func(b *asm.Builder) {
		b.St(1, 0, 27)   // s8:    [A, A+8)
		b.Stb(1, 3, 27)  // sb:    [A+3], a narrow store inside s8
		b.St(1, 16, 27)  // far:   [A+16, A+24)
		b.Ld(4, 0, 27)   // ld8:   [A, A+8), wider than sb
		b.Ldbu(5, 7, 27) // ldb7:  [A+7], inside s8 only
		b.Ldw(6, 12, 27) // ldw12: [A+12, A+16), between s8 and far
		b.Ld(8, 12, 27)  // ld12:  [A+12, A+20), straddles into far
		b.Stw(1, 4, 27)  // young: [A+4, A+8), younger than every load above
		b.Ldbu(7, 5, 27) // ldb5:  [A+5], behind young
	})
	insts := fetchAndDispatch(t, c)
	n := len(insts)
	// The kernel ends in ... young, ldb5, HALT.
	s8, sb, far := insts[n-10], insts[n-9], insts[n-8]
	ld8, ldb7, ldw12, ld12 := insts[n-7], insts[n-6], insts[n-5], insts[n-4]
	young, ldb5 := insts[n-3], insts[n-2]
	if s8.Static.Op != isa.ST || young.Static.Op != isa.STW || ldb5.Static.Op != isa.LDBU {
		t.Fatalf("kernel layout moved: %v %v %v", s8.Static.Op, young.Static.Op, ldb5.Static.Op)
	}
	names := map[*DynInst]string{nil: "none", s8: "s8", sb: "sb", far: "far", young: "young"}
	expect := func(step string, want map[*DynInst]*DynInst) {
		t.Helper()
		for ld, w := range want {
			if got := c.forwardingStore(ld); got != w {
				t.Errorf("%s: load at +%d forwards from %s, want %s",
					step, ld.Out.Addr-storeArena, names[got], names[w])
			}
		}
	}

	expect("nothing issued", map[*DynInst]*DynInst{ld8: nil, ldb7: nil, ldw12: nil, ld12: nil, ldb5: nil})
	c.issue(young)
	expect("young issued", map[*DynInst]*DynInst{ld8: nil, ldb7: nil, ldb5: young})
	c.issue(s8)
	expect("s8 issued", map[*DynInst]*DynInst{ld8: s8, ldb7: s8, ldw12: nil, ld12: nil, ldb5: young})
	c.issue(far)
	expect("far issued", map[*DynInst]*DynInst{ld8: s8, ldw12: nil, ld12: far})
	c.issue(sb)
	expect("all issued", map[*DynInst]*DynInst{ld8: sb, ldb7: s8, ldw12: nil, ld12: far, ldb5: young})
}

// A main-thread load behind a store whose address is not yet generated
// does not issue until that store has issued, even when the two turn out
// not to overlap; the overlapping load then forwards from it.
func testLoadWaitsForOlderUnissuedStore(t *testing.T) {
	var storePC uint64
	c := storeRuleCore(t, func(b *asm.Builder) {
		b.I(isa.LDI, 9, 0, 1000)
		b.I(isa.LDI, 10, 0, 10)
		b.R(isa.DIV, 11, 9, 10) // 100, after divLatency cycles
		b.I(isa.ADDI, 12, 11, -100)
		b.R(isa.ADD, 12, 12, 27) // the store's address waits on the divide
		storePC = b.PC()
		b.St(9, 0, 12)
		b.Ld(13, 8, 27) // disjoint from the store
		b.Ld(14, 0, 27) // the store's bytes
	})
	type life struct {
		seen, issued uint64
		forwarded    bool
	}
	lives := map[uint64]*life{}
	for step := 0; !c.Done(); step++ {
		if step > 1000 {
			t.Fatal("kernel did not halt")
		}
		c.stepCycle()
		for i := 0; i < c.main.rob.len(); i++ {
			d := c.main.rob.at(i)
			if d.PC < storePC {
				continue
			}
			l := lives[d.PC]
			if l == nil {
				l = &life{seen: c.now}
				lives[d.PC] = l
			}
			if d.Issued && l.issued == 0 {
				l.issued = c.now
			}
			l.forwarded = l.forwarded || d.forwarded
		}
	}
	st, ldFar, ldNear := lives[storePC], lives[storePC+isa.InstBytes], lives[storePC+2*isa.InstBytes]
	if st == nil || ldFar == nil || ldNear == nil || st.issued == 0 || ldFar.issued == 0 || ldNear.issued == 0 {
		t.Fatalf("store or loads never seen issuing: %+v %+v %+v", st, ldFar, ldNear)
	}
	if st.issued < ldFar.seen+divLatency/2 {
		t.Fatalf("store issued at %d, %d cycles after the loads dispatched; the divide did not hold it back",
			st.issued, st.issued-ldFar.seen)
	}
	for name, ld := range map[string]*life{"disjoint": ldFar, "overlapping": ldNear} {
		if ld.issued <= st.issued {
			t.Errorf("%s load issued at cycle %d, not after the older store's issue at %d", name, ld.issued, st.issued)
		}
	}
	if ldFar.forwarded || !ldNear.forwarded {
		t.Errorf("forwarded: disjoint %t (want false), overlapping %t (want true)", ldFar.forwarded, ldNear.forwarded)
	}
}

// With an 8-byte store and then a byte store inside it both in flight, the
// committed view returns the bytes from before the older store for a read
// of the whole word, a read overlapping both stores in part, and a read
// straddling past the wide store's end — while the speculative image
// already holds the new bytes.
func testCommittedReadPeelsInFlightStores(t *testing.T) {
	c := storeRuleCore(t, func(b *asm.Builder) {
		b.Li(1, 0x0102030405060708)
		b.I(isa.LDI, 2, 0, 0xEE)
		b.St(1, 0, 27)
		b.Stb(2, 2, 27)
	})
	fetchAndDispatch(t, c)
	p := c.progs[0]
	if v, _ := p.mem.Read(storeArena, 8); v != 0x0102030405EE0708 {
		t.Fatalf("speculative image holds %#x, want both stores applied", v)
	}
	for _, tc := range []struct {
		name string
		off  uint64
		size int
		want uint64
	}{
		{"full", 0, 8, 0x8877665544332211},
		{"byte under both", 2, 1, 0x33},
		{"overlapped", 1, 4, 0x55443322},
		{"straddling", 6, 4, 0x99888877},
	} {
		got, ok := p.committedRead(storeArena+tc.off, tc.size)
		if !ok || got != tc.want {
			t.Errorf("%s read of %d bytes at +%d = %#x (ok=%t), want %#x", tc.name, tc.size, tc.off, got, ok, tc.want)
		}
	}
}
