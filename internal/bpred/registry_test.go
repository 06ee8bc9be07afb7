package bpred

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// trainDir drives p through n deterministic (pc, value, outcome) triples,
// exercising whichever optional hooks it implements, so its state is far
// from the zero value before serialization tests.
func trainDir(p DirPredictor, n int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	prime, _ := p.(OutcomePrimed)
	vo, _ := p.(ValueObserver)
	var hist uint64
	for i := 0; i < n; i++ {
		pc := uint64(0x1000 + 8*rng.Intn(32))
		v := uint64(rng.Intn(5))
		taken := v != 0
		if prime != nil {
			prime.PrimeOutcome(taken)
		}
		p.Predict(pc, hist)
		if vo != nil {
			vo.ObserveValue(pc, CondNE, v)
		}
		p.Update(pc, hist, taken)
		hist = hist<<1 | 1
		if !taken {
			hist &^= 1
		}
	}
}

// mustNew builds the registry's default-geometry predictor name through
// newFn (NewDir or NewIndirect).
func mustNew[T, P any](tb testing.TB, newFn func(string) (P, error), name string) T {
	tb.Helper()
	p, err := newFn(name)
	if err != nil {
		tb.Fatal(err)
	}
	return any(p).(T)
}

func trainIndirect(p IndirectPredictor, n int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	var path uint64
	for i := 0; i < n; i++ {
		pc := uint64(0x2000 + 8*rng.Intn(16))
		target := uint64(0x8000 + 8*rng.Intn(8))
		p.Predict(pc, path)
		p.Update(pc, path, target)
		path = PushPath(path, target)
	}
}

func TestRegistryUnknownNames(t *testing.T) {
	if _, err := NewDir("nosuch"); err == nil {
		t.Fatal("NewDir(nosuch) succeeded")
	} else {
		for _, name := range DirNames() {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("unknown-predictor error %q does not list %q", err, name)
			}
		}
	}
	if _, err := NewIndirect("nosuch"); err == nil {
		t.Fatal("NewIndirect(nosuch) succeeded")
	}
	if _, err := NewDir("yags:8192,2048,6,12,99"); err == nil {
		t.Fatal("excess params accepted")
	}
	if _, err := NewDir("gshare:1000"); err == nil {
		t.Fatal("non-power-of-two table size accepted")
	}
}

// TestRegistryDefaults locks the behavior the cpu layer depends on: the
// empty spec resolves to the default predictors.
func TestRegistryDefaults(t *testing.T) {
	d, err := NewDir("")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d.(*YAGS); !ok {
		t.Errorf("NewDir(\"\") = %T, want *YAGS", d)
	}
	i, err := NewIndirect("")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := i.(*Cascaded); !ok {
		t.Errorf("NewIndirect(\"\") = %T, want *Cascaded", i)
	}
}

// TestSpecCanonical checks that Spec() is a fixed point of the registry:
// constructing from a predictor's own Spec yields the same Spec. The cpu
// restore path compares live Spec() strings on both sides, so this is
// what keeps canonical-vs-shorthand spellings from ever mismatching.
func TestSpecCanonical(t *testing.T) {
	for _, name := range DirNames() {
		p, err := NewDir(name)
		if err != nil {
			t.Fatalf("NewDir(%q): %v", name, err)
		}
		q, err := NewDir(p.Spec())
		if err != nil {
			t.Fatalf("NewDir(%q): %v", p.Spec(), err)
		}
		if q.Spec() != p.Spec() {
			t.Errorf("%s: Spec not canonical: %q -> %q", name, p.Spec(), q.Spec())
		}
	}
	for _, name := range IndirectNames() {
		p, err := NewIndirect(name)
		if err != nil {
			t.Fatalf("NewIndirect(%q): %v", name, err)
		}
		q, err := NewIndirect(p.Spec())
		if err != nil {
			t.Fatalf("NewIndirect(%q): %v", p.Spec(), err)
		}
		if q.Spec() != p.Spec() {
			t.Errorf("%s: Spec not canonical: %q -> %q", name, p.Spec(), q.Spec())
		}
	}
}

// TestDirStateRoundTrip trains every registered direction predictor,
// serializes it, loads the blob into a fresh instance, and requires both
// identical re-serialization and identical predictions.
func TestDirStateRoundTrip(t *testing.T) {
	for _, name := range DirNames() {
		p, err := NewDir(name)
		if err != nil {
			t.Fatal(err)
		}
		trainDir(p, 4000, 42)
		blob := p.SaveState()

		q, err := NewDir(p.Spec())
		if err != nil {
			t.Fatal(err)
		}
		if err := q.LoadState(blob); err != nil {
			t.Fatalf("%s: LoadState: %v", name, err)
		}
		if !bytes.Equal(q.SaveState(), blob) {
			t.Errorf("%s: SaveState after LoadState differs", name)
			continue
		}
		pp, _ := p.(OutcomePrimed)
		qp, _ := q.(OutcomePrimed)
		for i := 0; i < 256; i++ {
			pc := uint64(0x1000 + 8*(i%32))
			hist := uint64(i * 2654435761)
			if pp != nil {
				pp.PrimeOutcome(i%3 == 0)
				qp.PrimeOutcome(i%3 == 0)
			}
			if p.Predict(pc, hist) != q.Predict(pc, hist) {
				t.Errorf("%s: restored predictor diverges at probe %d", name, i)
				break
			}
		}
	}
}

func TestIndirectStateRoundTrip(t *testing.T) {
	for _, name := range IndirectNames() {
		p, err := NewIndirect(name)
		if err != nil {
			t.Fatal(err)
		}
		trainIndirect(p, 4000, 7)
		blob := p.SaveState()

		q, err := NewIndirect(p.Spec())
		if err != nil {
			t.Fatal(err)
		}
		if err := q.LoadState(blob); err != nil {
			t.Fatalf("%s: LoadState: %v", name, err)
		}
		if !bytes.Equal(q.SaveState(), blob) {
			t.Errorf("%s: SaveState after LoadState differs", name)
		}
		for i := 0; i < 256; i++ {
			pc := uint64(0x2000 + 8*(i%16))
			path := uint64(i * 2654435761)
			if p.Predict(pc, path) != q.Predict(pc, path) {
				t.Errorf("%s: restored predictor diverges at probe %d", name, i)
				break
			}
		}
	}
}

// corruptionPositions samples byte offsets to flip: every position for
// small blobs, ~2048 evenly spaced ones for large blobs (the CRC trailer
// catches any single flip, sampling only bounds test runtime).
func corruptionPositions(n int) []int {
	if n <= 2048 {
		pos := make([]int, n)
		for i := range pos {
			pos[i] = i
		}
		return pos
	}
	step := n / 2048
	var pos []int
	for i := 0; i < n; i += step {
		pos = append(pos, i)
	}
	return pos
}

// TestStateCorruptionDetected flips single bytes throughout each
// predictor's blob and requires LoadState to reject every one — the blob
// carries its own CRC trailer, independent of any outer container.
func TestStateCorruptionDetected(t *testing.T) {
	check := func(name string, blob []byte, load func([]byte) error) {
		t.Helper()
		for _, i := range corruptionPositions(len(blob)) {
			bad := append([]byte(nil), blob...)
			bad[i] ^= 0x40
			if err := load(bad); err == nil {
				t.Fatalf("%s: corruption at byte %d/%d not detected", name, i, len(blob))
			}
		}
		if err := load(blob[:len(blob)-1]); err == nil {
			t.Fatalf("%s: truncation not detected", name)
		}
	}
	for _, name := range DirNames() {
		p, _ := NewDir(name)
		trainDir(p, 4000, 42)
		q, _ := NewDir(p.Spec())
		check(name, p.SaveState(), q.LoadState)
	}
	for _, name := range IndirectNames() {
		p, _ := NewIndirect(name)
		trainIndirect(p, 4000, 7)
		q, _ := NewIndirect(p.Spec())
		check(name, p.SaveState(), q.LoadState)
	}
}

// TestStateGeometryMismatch loads each predictor's blob into a smaller
// sibling; the load must fail rather than silently truncate.
func TestStateGeometryMismatch(t *testing.T) {
	pairs := [][2]string{
		{"bimodal:8192", "bimodal:4096"},
		{"gshare:8192,12", "gshare:4096,12"},
		{"yags:8192,2048,6,12", "yags:8192,1024,6,12"},
		{"value:1024,4096,8192", "value:512,4096,8192"},
		{"corrmine:1024,16,48", "corrmine:512,16,48"},
	}
	for _, pr := range pairs {
		p, err := NewDir(pr[0])
		if err != nil {
			t.Fatal(err)
		}
		trainDir(p, 2000, 3)
		q, err := NewDir(pr[1])
		if err != nil {
			t.Fatal(err)
		}
		if err := q.LoadState(p.SaveState()); err == nil {
			t.Errorf("loading %q state into %q succeeded", pr[0], pr[1])
		}
	}
}

// TestValuePredCountedLoopExit is the value predictor's reason to exist:
// a counted loop's exit iteration is unpredictable from branch history
// alone, but the tested register walks a perfect stride, so predicting
// the *value* predicts the exit. After warm-up the exit iteration must be
// predicted not-taken.
func TestValuePredCountedLoopExit(t *testing.T) {
	v := mustNew[*ValuePred](t, NewDir, "value")
	const pc = 0x40
	exitMisses := 0
	for run := 0; run < 30; run++ {
		for i := -10; i <= 0; i++ {
			val := uint64(int64(i))
			taken := i < 0 // BLT-style: taken while the counter is negative
			got := v.Predict(pc, 0)
			if run >= 20 && i == 0 && got != taken {
				exitMisses++
			}
			v.ObserveValue(pc, CondLT, val)
			v.Update(pc, 0, taken)
		}
	}
	if exitMisses != 0 {
		t.Errorf("value predictor missed %d/10 warm loop exits", exitMisses)
	}
	if v.Stats.ValueUsed == 0 {
		t.Error("value path never used")
	}
}

// TestCorrMineLearnsCrossBranchCorrelation checks the miner's reason to
// exist: branch B repeats the outcome of the preceding branch A. Bias
// alone is 50/50; the position-correlation counters must find A.
func TestCorrMineLearnsCrossBranchCorrelation(t *testing.T) {
	m := mustNew[*CorrMine](t, NewDir, "corrmine")
	rng := rand.New(rand.NewSource(5))
	const pcA, pcB = 0x100, 0x200
	correct, total := 0, 0
	for i := 0; i < 4000; i++ {
		a := rng.Intn(2) == 0
		m.Predict(pcA, 0)
		m.Update(pcA, 0, a)
		got := m.Predict(pcB, 0)
		if i >= 2000 {
			total++
			if got == a {
				correct++
			}
		}
		m.Update(pcB, 0, a)
	}
	if acc := float64(correct) / float64(total); acc < 0.9 {
		t.Errorf("corrmine accuracy on perfectly correlated branch = %.2f, want >= 0.9", acc)
	}
}

// TestPerfectDirCoverage: covered PCs follow the primed outcome exactly;
// uncovered PCs fall back to the trained YAGS.
func TestPerfectDirCoverage(t *testing.T) {
	p := NewPerfectDir(map[uint64]bool{0x100: true})
	for i := 0; i < 100; i++ {
		taken := i%3 == 0
		p.PrimeOutcome(taken)
		if got := p.Predict(0x100, uint64(i)); got != taken {
			t.Fatalf("covered PC mispredicted at instance %d", i)
		}
		// The uncovered PC is always-taken; train the fallback on it.
		p.PrimeOutcome(true)
		p.Predict(0x200, 0)
		p.Update(0x200, 0, true)
	}
	if !p.Predict(0x200, 0) {
		t.Error("fallback did not learn the uncovered always-taken branch")
	}
	if p.Stats.Covered == 0 || p.Stats.FallbackUsed == 0 {
		t.Errorf("coverage counters not populated: %+v", p.Stats)
	}

	spec := PerfectSpec(map[uint64]bool{0x200: true, 0x100: true})
	q, err := NewDir(spec)
	if err != nil {
		t.Fatalf("NewDir(%q): %v", spec, err)
	}
	if q.Spec() != spec {
		t.Errorf("PerfectSpec not canonical: %q -> %q", spec, q.Spec())
	}
}

// TestPerfectSpecEmpty: an empty set means every branch is covered.
func TestPerfectSpecEmpty(t *testing.T) {
	p, err := NewDir("perfect")
	if err != nil {
		t.Fatal(err)
	}
	prime := p.(OutcomePrimed)
	for i := 0; i < 50; i++ {
		taken := i%7 == 0
		prime.PrimeOutcome(taken)
		if p.Predict(uint64(0x1000+8*i), uint64(i)) != taken {
			t.Fatalf("all-covered perfect predictor mispredicted instance %d", i)
		}
	}
}
