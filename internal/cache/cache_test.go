package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCacheGeometryValidation(t *testing.T) {
	if _, err := NewCache("x", 64<<10, 2, 64); err != nil {
		t.Errorf("valid geometry rejected: %v", err)
	}
	if _, err := NewCache("x", 64<<10, 2, 48); err == nil {
		t.Error("non-power-of-two line accepted")
	}
	if _, err := NewCache("x", 1000, 3, 64); err == nil {
		t.Error("indivisible size accepted")
	}
	if _, err := NewCache("x", 3*64*2, 2, 64); err == nil {
		t.Error("non-power-of-two sets accepted")
	}
}

func TestCacheHitAfterFill(t *testing.T) {
	c := MustCache("t", 4096, 2, 64)
	addr := uint64(0x12340)
	if c.Access(addr, false) {
		t.Fatal("cold access must miss")
	}
	c.Fill(addr, false, OriginNone)
	if !c.Access(addr, false) {
		t.Error("access after fill must hit")
	}
	// Same line, different offset.
	if !c.Access(addr+63-(addr%64), false) {
		t.Error("same-line offset must hit")
	}
	// Next line misses.
	if c.Access(c.LineAddr(addr)+64, false) {
		t.Error("neighbouring line must miss")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2 ways, 64B lines, 2 sets → 256 bytes.
	c := MustCache("t", 256, 2, 64)
	// Three lines mapping to set 0 (line addresses 0x1000, 0x1080 differ
	// in set bit; choose stride = sets*line = 128 bytes).
	a, b2, d := uint64(0x1000), uint64(0x1080), uint64(0x1100)
	c.Fill(a, false, OriginNone)
	c.Fill(b2, false, OriginNone)
	c.Access(a, false) // make a MRU
	vAddr, _, ev := c.Fill(d, false, OriginNone)
	if !ev || vAddr != b2 {
		t.Errorf("evicted %#x (ev=%v), want %#x", vAddr, ev, b2)
	}
	if !c.Probe(a) || !c.Probe(d) || c.Probe(b2) {
		t.Error("post-eviction contents wrong")
	}
}

func TestCacheDirtyWriteback(t *testing.T) {
	c := MustCache("t", 128, 1, 64) // direct-mapped, 2 sets
	a := uint64(0x1000)
	conflict := uint64(0x1080) // same set (stride 128)
	c.Fill(a, false, OriginNone)
	c.Access(a, true) // dirty it
	vAddr, vDirty, ev := c.Fill(conflict, false, OriginNone)
	if !ev || vAddr != a || !vDirty {
		t.Errorf("eviction = %#x dirty=%v ev=%v", vAddr, vDirty, ev)
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("writebacks = %d", c.Stats().Writebacks)
	}
}

func TestCacheFillIdempotent(t *testing.T) {
	c := MustCache("t", 4096, 2, 64)
	c.Fill(0x2000, false, OriginNone)
	_, _, ev := c.Fill(0x2000, true, OriginNone)
	if ev {
		t.Error("refill of resident line must not evict")
	}
	// The refill with dirty=true must stick.
	v, d, e := c.Fill(0x2000+4096, false, OriginNone) // placed in other way or set
	_ = v
	_ = d
	_ = e
	if !c.Probe(0x2000) {
		t.Error("line vanished")
	}
}

// TestCacheInvalidate: Extract, the one line-removal method, removes a
// line and reports its dirtiness and origin.
func TestCacheInvalidate(t *testing.T) {
	c := MustCache("t", 4096, 2, 64)
	c.Fill(0x3000, true, OriginHelper)
	present, dirty, orig := c.Extract(0x3000)
	if !present || !dirty || orig != OriginHelper {
		t.Errorf("invalidate = %v,%v,%v", present, dirty, orig)
	}
	if c.Probe(0x3000) {
		t.Error("line still present after invalidate")
	}
	if p, _, _ := c.Extract(0x3000); p {
		t.Error("double invalidate reported present")
	}
}

// Property: the cache never holds more distinct lines than its capacity,
// and a hit is always preceded by a fill of that line (reference model).
func TestQuickCacheReferenceModel(t *testing.T) {
	c := MustCache("t", 2048, 2, 64) // 16 sets... 2048/(2*64)=16
	resident := make(map[uint64]bool)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100000; i++ {
		addr := uint64(rng.Intn(64)) * 64 * uint64(rng.Intn(7)+1)
		line := c.LineAddr(addr)
		if rng.Intn(2) == 0 {
			hit := c.Access(addr, false)
			if hit != resident[line] {
				t.Fatalf("access(%#x) hit=%v, model says %v", addr, hit, resident[line])
			}
		} else {
			vAddr, _, ev := c.Fill(addr, false, OriginNone)
			if ev {
				if !resident[vAddr] {
					t.Fatalf("evicted non-resident line %#x", vAddr)
				}
				delete(resident, vAddr)
			}
			resident[line] = true
		}
		if len(resident) > 32 {
			t.Fatalf("model holds %d lines > capacity", len(resident))
		}
	}
}

// newPVB builds a prefetch/victim buffer of n lines the way NewHierarchy
// does: a one-set Cache with n ways.
func newPVB(n, lineBytes int) *Cache { return MustCache("PVB", n*lineBytes, n, lineBytes) }

func TestPVBInsertExtract(t *testing.T) {
	b := newPVB(4, 64)
	b.Fill(0x1000, false, OriginNone)
	b.Fill(0x2000, true, OriginNone)
	if !b.Probe(0x1000) || !b.Probe(0x2040) == false && false {
		t.Error("probe failed")
	}
	present, dirty, _ := b.Extract(0x2000)
	if !present || !dirty {
		t.Errorf("extract = %v,%v", present, dirty)
	}
	if b.Probe(0x2000) {
		t.Error("extract did not remove the line")
	}
	// Same-line offset probes hit.
	if !b.Probe(0x1004) {
		t.Error("offset probe missed")
	}
}

func TestPVBEvictsLRU(t *testing.T) {
	b := newPVB(2, 64)
	b.Fill(0x1000, false, OriginNone)
	b.Fill(0x2000, true, OriginNone)
	vAddr, vDirty, ev := b.Fill(0x3000, false, OriginNone)
	if !ev || vAddr != 0x1000 || vDirty {
		t.Errorf("evicted %#x dirty=%v ev=%v", vAddr, vDirty, ev)
	}
	// Duplicate insert refreshes rather than duplicating.
	b.Fill(0x3000, true, OriginNone)
	if p, d, _ := b.Extract(0x3000); !p || !d {
		t.Error("duplicate insert lost dirtiness")
	}
}

func TestStreamPrefetcherDetectsPositiveStride(t *testing.T) {
	p := NewStreamPrefetcher(4, 2)
	const lb = 64
	p.OnMiss(0x10000, lb) // allocates candidates
	out := p.OnMiss(0x10040, lb)
	// The +1 candidate stream predicted this; expect depth-2 run-ahead.
	want := []uint64{0x10080, 0x100C0}
	if len(out) != len(want) {
		t.Fatalf("prefetches = %#v", out)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("out[%d] = %#x, want %#x", i, out[i], want[i])
		}
	}
	if p.Confirmed != 1 {
		t.Errorf("confirmed = %d", p.Confirmed)
	}
}

func TestStreamPrefetcherDetectsNegativeStride(t *testing.T) {
	p := NewStreamPrefetcher(4, 1)
	const lb = 64
	p.OnMiss(0x10000, lb)
	out := p.OnMiss(0x10000-lb, lb)
	if len(out) != 1 || out[0] != 0x10000-2*lb {
		t.Errorf("negative stride prefetch = %#v", out)
	}
}

func TestStreamPrefetcherSequentialFallback(t *testing.T) {
	p := NewStreamPrefetcher(4, 2)
	out := p.OnMiss(0x40000, 64)
	if len(out) != 1 || out[0] != 0x40040 {
		t.Errorf("sequential fallback = %#v", out)
	}
}

func TestHierarchyLatencies(t *testing.T) {
	p := DefaultParams()
	h := NewHierarchy(p)
	addr := uint64(0x100000)

	// Cold: memory latency.
	r := h.Access(addr, false, KindDemand, 1000)
	if r.Level != LevelMem {
		t.Fatalf("cold access level = %v", r.Level)
	}
	if r.Latency != p.LatL1+p.LatL2+p.LatMem {
		t.Errorf("cold latency = %d, want %d", r.Latency, p.LatL1+p.LatL2+p.LatMem)
	}

	// Hot after the fill arrives.
	later := 1000 + r.Latency + 1
	r = h.Access(addr, false, KindDemand, later)
	if r.Level != LevelL1 || r.Latency != p.LatL1 {
		t.Errorf("hot access = %+v", r)
	}

	// A different address in the same L2 line but a different L1 line:
	// L2 hit latency.
	other := addr + uint64(p.L1Line)
	r = h.Access(other, false, KindDemand, later)
	if r.Level != LevelL2 && r.Level != LevelPVB && r.Level != LevelMerged {
		// The sequential prefetcher may have already pulled it into the
		// PVB or still have it in flight; all are acceptable fast paths.
		t.Errorf("same-L2-line access level = %v", r.Level)
	}
}

func TestHierarchyMergesInflight(t *testing.T) {
	p := DefaultParams()
	h := NewHierarchy(p)
	addr := uint64(0x200000)
	r1 := h.Access(addr, false, KindDemand, 100)
	r2 := h.Access(addr+8, false, KindDemand, 110)
	if r2.Level != LevelMerged {
		t.Fatalf("second access level = %v", r2.Level)
	}
	if got, want := r2.Latency, 100+r1.Latency-110; got != want {
		t.Errorf("merged latency = %d, want %d", got, want)
	}
}

func TestHierarchyHelperCoverage(t *testing.T) {
	p := DefaultParams()
	h := NewHierarchy(p)
	addr := uint64(0x300000)
	// Helper brings the line in.
	r := h.Access(addr, false, KindHelper, 100)
	if r.HelperCovered {
		t.Error("helper access must not count as covered")
	}
	// Demand touch after arrival is covered.
	r = h.Access(addr, false, KindDemand, 100+r.Latency+1)
	if !r.HelperCovered {
		t.Error("demand touch of helper-fetched line must be covered")
	}
	if h.Stats.HelperCovered != 1 {
		t.Errorf("HelperCovered = %d", h.Stats.HelperCovered)
	}
	// Second touch is not covered again.
	r = h.Access(addr, false, KindDemand, 400)
	if r.HelperCovered {
		t.Error("coverage must count once per line")
	}
}

func TestHierarchyHelperMergedCoverage(t *testing.T) {
	p := DefaultParams()
	h := NewHierarchy(p)
	addr := uint64(0x340000)
	h.Access(addr, false, KindHelper, 100)
	// Demand arrives while the helper's fill is still in flight: partial
	// latency, still attributed.
	r := h.Access(addr, false, KindDemand, 120)
	if r.Level != LevelMerged || !r.HelperCovered {
		t.Errorf("merged helper coverage = %+v", r)
	}
}

func TestHierarchyPVBPath(t *testing.T) {
	p := DefaultParams()
	p.Streams = 1
	h := NewHierarchy(p)
	// Trigger a demand miss; its sequential prefetch lands in the PVB.
	r0 := h.Access(0x400000, false, KindDemand, 100)
	for now := uint64(100); now < 100+r0.Latency+300; now++ {
		h.Tick(now)
	}
	if h.Stats.PrefetchIssued == 0 {
		t.Fatal("no prefetch issued")
	}
	r := h.Access(0x400000+uint64(p.L1Line), false, KindDemand, 600)
	if r.Level != LevelPVB {
		t.Fatalf("prefetched line level = %v", r.Level)
	}
	if r.Latency != p.LatL1 {
		t.Errorf("PVB hit latency = %d", r.Latency)
	}
	if !r.HWPrefCovered {
		t.Error("PVB hit on prefetched line must be HWPrefCovered")
	}
}

func TestWriteBufferBackpressure(t *testing.T) {
	p := DefaultParams()
	p.WriteBufEntries = 2
	h := NewHierarchy(p)
	// Store misses to distinct lines fill the buffer.
	if !h.StoreRetire(0x500000, 10) || !h.StoreRetire(0x510000, 10) {
		t.Fatal("stores rejected with space available")
	}
	if h.StoreRetire(0x520000, 10) {
		t.Error("store accepted with full buffer")
	}
	if h.Stats.WriteBufFull != 1 {
		t.Errorf("WriteBufFull = %d", h.Stats.WriteBufFull)
	}
	// Draining frees space.
	for now := uint64(11); now < 500 && h.WriteBufLen() > 0; now++ {
		h.Tick(now)
	}
	if h.WriteBufLen() != 0 {
		t.Error("write buffer did not drain")
	}
	if !h.StoreRetire(0x520000, 600) {
		t.Error("store rejected after drain")
	}
}

func TestStoreHitBypassesBuffer(t *testing.T) {
	h := NewHierarchy(DefaultParams())
	addr := uint64(0x600000)
	r := h.Access(addr, false, KindDemand, 10)
	if !h.StoreRetire(addr, 10+r.Latency+1) {
		t.Error("store hit rejected")
	}
	if h.WriteBufLen() != 0 {
		t.Error("store hit consumed a write-buffer entry")
	}
}

func TestICacheFetch(t *testing.T) {
	h := NewHierarchy(DefaultParams())
	if lat := h.FetchAccess(0x1000, 5); lat == 0 {
		t.Error("cold fetch must miss")
	}
	if lat := h.FetchAccess(0x1000, 10); lat != 0 {
		t.Errorf("warm fetch latency = %d", lat)
	}
	if h.Stats.ICMisses != 1 {
		t.Errorf("ICMisses = %d", h.Stats.ICMisses)
	}
}

// Property: latency is always at least the L1 latency and levels are
// consistent with L1Miss.
func TestQuickHierarchyInvariants(t *testing.T) {
	h := NewHierarchy(DefaultParams())
	now := uint64(100)
	f := func(a uint32, helper bool) bool {
		addr := uint64(a)%(1<<22) + 0x10000
		kind := KindDemand
		if helper {
			kind = KindHelper
		}
		r := h.Access(addr, false, kind, now)
		h.Tick(now)
		now += 3
		if r.Latency < h.P.LatL1 {
			return false
		}
		if r.Level == LevelL1 && r.L1Miss {
			return false
		}
		if (r.Level == LevelL2 || r.Level == LevelMem || r.Level == LevelPVB) && !r.L1Miss {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestHotLoopFitsInL1(t *testing.T) {
	// A working set smaller than the L1 must stop missing after one pass.
	h := NewHierarchy(DefaultParams())
	now := uint64(0)
	for pass := 0; pass < 3; pass++ {
		missesBefore := h.L1D.Stats().Misses
		for a := uint64(0); a < 32<<10; a += 64 {
			r := h.Access(0x700000+a, false, KindDemand, now)
			now += r.Latency
			h.Tick(now)
		}
		if pass > 0 && h.L1D.Stats().Misses != missesBefore {
			t.Errorf("pass %d missed %d times", pass, h.L1D.Stats().Misses-missesBefore)
		}
	}
}

// All memory traffic shares one bus: back-to-back transfers arrive
// MemOccupancy apart whether a demand miss, a hardware prefetch or an
// I-cache miss started them.
func TestHierarchyOneBus(t *testing.T) {
	p := DefaultParams()
	h := NewHierarchy(p)
	now := uint64(100)
	// A demand miss on an odd L1 line of an L2 line: its next-line
	// prefetch misses the L2 too, so it queues right behind.
	a := uint64(0x100040)
	r := h.Access(a, false, KindDemand, now)
	first := now + r.Latency
	if want := now + p.LatL1 + p.LatL2 + p.LatMem; first != want {
		t.Fatalf("idle-bus demand arrives at %d, want %d", first, want)
	}
	if h.Stats.PrefetchIssued != 1 {
		t.Fatalf("PrefetchIssued = %d, want 1", h.Stats.PrefetchIssued)
	}
	// A demand touch merges with the in-flight prefetch and sees when it
	// arrives.
	r = h.Access(a+uint64(p.L1Line), false, KindDemand, now+1)
	if r.Level != LevelMerged {
		t.Fatalf("touch of in-flight prefetch level = %v", r.Level)
	}
	if got, want := now+1+r.Latency, first+p.MemOccupancy; got != want {
		t.Errorf("prefetch arrives at %d, want %d", got, want)
	}
	if got, want := now+2+h.FetchAccess(0x900000, now+2), first+2*p.MemOccupancy; got != want {
		t.Errorf("I-cache fill arrives at %d, want %d", got, want)
	}
	// An even L1 line: the next-line prefetch hits the L2, off the bus.
	r = h.Access(0x200000, false, KindDemand, now+3)
	if got, want := now+3+r.Latency, first+3*p.MemOccupancy; got != want {
		t.Errorf("queued demand arrives at %d, want %d", got, want)
	}
}

// A hardware prefetch that needs the memory bus is dropped once the bus
// queue is LatMem deep; demand misses always queue.
func TestHierarchyPrefetchBandwidthGate(t *testing.T) {
	p := DefaultParams()
	// Each miss below adds two transfers, so the queue deepens in steps
	// of 2*MemOccupancy from LatL1+LatL2+MemOccupancy; this LatMem lies on
	// that ladder, so one miss finds the queue exactly LatMem deep.
	p.LatMem = p.LatL1 + p.LatL2 + p.MemOccupancy + 2*p.MemOccupancy*11
	h := NewHierarchy(p)
	now := uint64(1000)
	var issued, dropped int
	sawEdge := false
	for i := uint64(0); i < 40; i++ {
		before := h.Stats.PrefetchIssued
		// Odd L1 lines far apart: each demand's next-line prefetch needs
		// memory, and no stream forms.
		r := h.Access(0x400040+i<<16, false, KindDemand, now)
		// The demand's transfer holds the bus until MemOccupancy after
		// it starts, LatMem before it arrives.
		depth := r.Latency - p.LatMem + p.MemOccupancy
		sawEdge = sawEdge || depth == p.LatMem
		if got, want := h.Stats.PrefetchIssued-before, depth < p.LatMem; (got == 1) != want || got > 1 {
			t.Fatalf("miss %d: bus %d cycles deep, %d prefetches issued", i, depth, got)
		}
		if h.Stats.PrefetchIssued > before {
			issued++
		} else {
			dropped++
		}
	}
	if issued == 0 || dropped == 0 || !sawEdge {
		t.Errorf("issued %d, dropped %d, queue exactly LatMem deep %t: the gate was not exercised",
			issued, dropped, sawEdge)
	}
}

// A demand miss that merges with an in-flight hardware prefetch credits
// the prefetcher once, and the line the demand promoted into the L1 is
// not credited again when the prefetch arrives.
func TestHierarchyHWPrefetchMergedCoverage(t *testing.T) {
	p := DefaultParams()
	h := NewHierarchy(p)
	r := h.Access(0x340040, false, KindDemand, 100)
	pf := uint64(0x340080)
	m := h.Access(pf, false, KindDemand, 110)
	if m.Level != LevelMerged || !m.HWPrefCovered || m.HelperCovered {
		t.Fatalf("merged prefetch touch = %+v", m)
	}
	if h.Stats.PrefetchUseful != 1 {
		t.Fatalf("PrefetchUseful = %d, want 1", h.Stats.PrefetchUseful)
	}
	end := 110 + m.Latency + r.Latency
	for now := uint64(110); now <= end; now++ {
		h.Tick(now)
	}
	if h.PVB.Probe(pf) || !h.L1D.Probe(pf) {
		t.Error("merged prefetch must stay in the L1, not land in the PVB")
	}
	if again := h.Access(pf, false, KindDemand, end+1); again.HWPrefCovered || again.Level != LevelL1 {
		t.Errorf("second touch = %+v", again)
	}
	if h.Stats.PrefetchUseful != 1 {
		t.Errorf("PrefetchUseful = %d after second touch, want 1", h.Stats.PrefetchUseful)
	}
}

// prefetchIntoPVB runs an even L1 line's demand miss, whose next-line
// prefetch hits the L2, until the prefetched line sits in the PVB. It
// returns that line and the next free cycle.
func prefetchIntoPVB(t *testing.T, h *Hierarchy, now uint64) (uint64, uint64) {
	t.Helper()
	r := h.Access(0x400000, false, KindDemand, now)
	for end := now + r.Latency + 1; now < end; now++ {
		h.Tick(now)
	}
	pf := uint64(0x400000 + h.P.L1Line)
	if !h.PVB.Probe(pf) || h.L1D.Probe(pf) {
		t.Fatal("prefetch did not land in the PVB")
	}
	return pf, now
}

// A prefetched line that L1 victims push out of the PVB takes its credit
// with it: when demand later refetches the line from the L2, hitting it
// again credits nobody.
func TestHierarchyEvictedPrefetchLeavesNoCredit(t *testing.T) {
	p := DefaultParams()
	p.PVBEntries = 4
	h := NewHierarchy(p)
	pf, now := prefetchIntoPVB(t, h, 100)
	// Demand misses that all map to one L1 set spill victims (and their
	// own prefetches) into the PVB until the prefetched line is gone.
	stride := uint64(p.L1Bytes / p.L1Ways)
	for i := uint64(1); h.PVB.Probe(pf); i++ {
		if i > 16 {
			t.Fatal("L1 victims never evicted the prefetched line")
		}
		r := h.Access(0x800000+i*stride, false, KindDemand, now)
		for end := now + r.Latency + 1; now < end; now++ {
			h.Tick(now)
		}
	}
	useful := h.Stats.PrefetchUseful
	r := h.Access(pf, false, KindDemand, now)
	if r.Level != LevelL2 || r.HWPrefCovered {
		t.Fatalf("refetch = %+v, want an uncredited L2 hit", r)
	}
	now += r.Latency + 1
	if hit := h.Access(pf, false, KindDemand, now); hit.Level != LevelL1 || hit.HWPrefCovered {
		t.Errorf("demand hit on the refetched line = %+v", hit)
	}
	if h.Stats.PrefetchUseful != useful {
		t.Errorf("PrefetchUseful = %d, want %d: an evicted prefetch was credited", h.Stats.PrefetchUseful, useful)
	}
}

// A helper access that promotes a prefetched line from the PVB into the
// L1 leaves the prefetcher's credit on the line for the first demand hit.
func TestHierarchyHelperPromotionKeepsPrefetchCredit(t *testing.T) {
	h := NewHierarchy(DefaultParams())
	pf, now := prefetchIntoPVB(t, h, 100)
	if r := h.Access(pf, false, KindHelper, now); r.Level != LevelPVB || r.HWPrefCovered {
		t.Fatalf("helper touch = %+v, want an uncredited PVB hit", r)
	}
	if h.PVB.Probe(pf) || !h.L1D.Probe(pf) {
		t.Fatal("helper touch did not promote the line into the L1")
	}
	if r := h.Access(pf, false, KindDemand, now+1); r.Level != LevelL1 || !r.HWPrefCovered {
		t.Errorf("first demand hit = %+v, want HWPrefCovered", r)
	}
	if r := h.Access(pf, false, KindDemand, now+2); r.HWPrefCovered {
		t.Error("second demand hit credited again")
	}
	if h.Stats.PrefetchUseful != 1 {
		t.Errorf("PrefetchUseful = %d, want 1", h.Stats.PrefetchUseful)
	}
}

// A prefetch arrival credits the prefetcher only while the fill is still
// its own: after a demand merge took the credit and the promoted line was
// evicted into the PVB, the arriving prefetch adds no second credit.
func TestHierarchyMergedPrefetchArrivesWithoutCredit(t *testing.T) {
	p := DefaultParams()
	h := NewHierarchy(p)
	r := h.Access(0x340040, false, KindDemand, 100)
	pf := uint64(0x340080)
	m := h.Access(pf, false, KindDemand, 110)
	if m.Level != LevelMerged || !m.HWPrefCovered {
		t.Fatalf("merged prefetch touch = %+v", m)
	}
	// Two more lines in pf's L1 set push it out into the PVB before its
	// prefetch arrives.
	stride := uint64(p.L1Bytes / p.L1Ways)
	h.Access(pf+stride, false, KindDemand, 111)
	h.Access(pf+2*stride, false, KindDemand, 112)
	if h.L1D.Probe(pf) || !h.PVB.Probe(pf) {
		t.Fatal("promoted line was not evicted into the PVB")
	}
	end := 110 + m.Latency + r.Latency
	for now := uint64(112); now <= end; now++ {
		h.Tick(now)
	}
	if again := h.Access(pf, false, KindDemand, end+1); again.Level != LevelPVB || again.HWPrefCovered {
		t.Errorf("touch after arrival = %+v, want an uncredited PVB hit", again)
	}
	if h.Stats.PrefetchUseful != 1 {
		t.Errorf("PrefetchUseful = %d, want 1", h.Stats.PrefetchUseful)
	}
}
