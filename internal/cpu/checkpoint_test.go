package cpu

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/progen"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// straightThrough is the reference methodology: warm under the warm config,
// quiesce, swap in the measurement config, reset stats, measure. The
// checkpointed methodology (Checkpoint + Restore) must be indistinguishable
// from it. The program tables latch Config.Perfect at New, so the swap
// rebuilds them.
func straightThrough(t *testing.T, w *workloads.Workload, cfg Config, withSlices bool, warm, run uint64) stats.Snapshot {
	t.Helper()
	var table = w.SliceTable()
	if !withSlices {
		table = nil
	}
	c := MustNew(cfg.WarmConfig(), w.Image, w.NewMemory(), w.Entry, table)
	c.Run(warm)
	if err := c.Quiesce(); err != nil {
		t.Fatalf("quiesce: %v", err)
	}
	c.cfg = cfg
	for _, p := range c.progs {
		var err error
		if p.pcs, err = newPCTable(p.image, p.sliceTable, &c.cfg); err != nil {
			t.Fatal(err)
		}
	}
	c.ResetStats()
	c.Run(run)
	return c.Snapshot()
}

// restored warms once, checkpoints, and measures from the restored core.
func restored(t *testing.T, w *workloads.Workload, cfg Config, withSlices bool, warm, run uint64) stats.Snapshot {
	t.Helper()
	var table = w.SliceTable()
	if !withSlices {
		table = nil
	}
	c := MustNew(cfg.WarmConfig(), w.Image, w.NewMemory(), w.Entry, table)
	c.Run(warm)
	ck, err := c.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	r, err := Restore(cfg, w.Image, ck, table)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	r.Run(run)
	return r.Snapshot()
}

func diffSnapshots(t *testing.T, name string, a, b stats.Snapshot) {
	t.Helper()
	if reflect.DeepEqual(a, b) {
		return
	}
	av, bv := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < av.NumField(); i++ {
		if !reflect.DeepEqual(av.Field(i).Interface(), bv.Field(i).Interface()) {
			t.Errorf("%s: snapshot field %s differs:\n  straight: %+v\n  restored: %+v",
				name, av.Type().Field(i).Name, av.Field(i).Interface(), bv.Field(i).Interface())
		}
	}
}

// TestCheckpointEquivalence: for every workload, with and without slices,
// and under a measurement-only config change (perfect branches), the
// restored measurement must be statistically identical to the straight
// warm-then-measure run.
func TestCheckpointEquivalence(t *testing.T) {
	const warm, run = 30_000, 60_000
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			cfg := Config4Wide()
			diffSnapshots(t, "base", straightThrough(t, w, cfg, false, warm, run), restored(t, w, cfg, false, warm, run))
			diffSnapshots(t, "slices", straightThrough(t, w, cfg, true, warm, run), restored(t, w, cfg, true, warm, run))

			perf := Config4Wide()
			perf.Perfect = Perfect{AllBranches: true, AllLoads: true}
			diffSnapshots(t, "perfect", straightThrough(t, w, perf, false, warm, run), restored(t, w, perf, false, warm, run))
		})
	}
}

// TestCheckpointWarmConfigSharing: a checkpoint captured once serves every
// measurement config with the same warm fingerprint, concurrently.
func TestCheckpointWarmConfigSharing(t *testing.T) {
	w := workloads.VPR()
	base := Config4Wide()
	table := w.SliceTable()

	c := MustNew(base.WarmConfig(), w.Image, w.NewMemory(), w.Entry, table)
	c.Run(30_000)
	ck, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	perf := Config4Wide()
	perf.Perfect = Perfect{AllBranches: true}
	cfgs := []Config{base, perf, base, perf}

	var wg sync.WaitGroup
	snaps := make([]stats.Snapshot, len(cfgs))
	for i, cfg := range cfgs {
		if cfg.WarmFingerprint() != base.WarmFingerprint() {
			t.Fatalf("config %d has a different warm fingerprint", i)
		}
		wg.Add(1)
		go func(i int, cfg Config) {
			defer wg.Done()
			r, err := Restore(cfg, w.Image, ck, table)
			if err != nil {
				t.Error(err)
				return
			}
			r.Run(60_000)
			snaps[i] = r.Snapshot()
		}(i, cfg)
	}
	wg.Wait()

	diffSnapshots(t, "base/base", snaps[0], snaps[2])
	diffSnapshots(t, "perf/perf", snaps[1], snaps[3])
	if reflect.DeepEqual(snaps[0], snaps[1]) {
		t.Error("perfect-branch run unexpectedly identical to base run")
	}
}

// TestWarmConfigFingerprint pins which fields are measurement-only.
func TestWarmConfigFingerprint(t *testing.T) {
	base := Config4Wide()

	named := base
	named.Name = "other"
	perf := base
	perf.Perfect = Perfect{AllBranches: true}
	for i, cfg := range []Config{named, perf} {
		if cfg.WarmFingerprint() != base.WarmFingerprint() {
			t.Errorf("config %d: measurement-only change altered the warm fingerprint", i)
		}
	}

	predOff := base
	predOff.SlicePredictionsOff = true
	wider := base
	wider.WindowSize++
	for i, cfg := range []Config{predOff, wider} {
		if cfg.WarmFingerprint() == base.WarmFingerprint() {
			t.Errorf("config %d: warm-relevant change did not alter the warm fingerprint", i)
		}
	}
}

// TestRestorePredictorMismatch: a checkpoint warmed under one predictor
// must never restore into a core configured for another — neither a
// different predictor kind nor the same kind at a different geometry.
func TestRestorePredictorMismatch(t *testing.T) {
	w := workloads.VPR()
	c := MustNew(Config4Wide(), w.Image, w.NewMemory(), w.Entry, nil)
	c.Run(10_000)
	ck, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	// The last spec keeps the default tables and shortens the history:
	// only the spec check tells it apart.
	for _, spec := range []string{"bimodal", "value", "yags:4096,1024,6,12", "yags:8192,2048,6,10"} {
		bad := Config4Wide()
		bad.BPred = spec
		if _, err := Restore(bad, w.Image, ck, nil); err == nil {
			t.Errorf("restore under -bpred=%s accepted a yags checkpoint", spec)
		}
	}
	// Sanity: the unmodified config still restores.
	if _, err := Restore(Config4Wide(), w.Image, ck, nil); err != nil {
		t.Errorf("restore under the original config failed: %v", err)
	}
}

// TestRestoreGeometryMismatch: structural config changes must be rejected.
func TestRestoreGeometryMismatch(t *testing.T) {
	w := workloads.VPR()
	c := MustNew(Config4Wide(), w.Image, w.NewMemory(), w.Entry, nil)
	c.Run(10_000)
	ck, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	bad := Config8Wide()
	if bad.ThreadContexts == Config4Wide().ThreadContexts {
		bad.ThreadContexts++
	}
	if _, err := Restore(bad, w.Image, ck, nil); err == nil {
		t.Error("restore accepted a checkpoint with mismatched thread-context count")
	}
}

// TestCheckpointAfterHalt: checkpointing a finished program must work and
// restoring it yields a core that is immediately Done.
func TestCheckpointAfterHalt(t *testing.T) {
	im, entry := buildImage(t, func(b *asm.Builder) {
		b.I(isa.LDI, 1, 0, 40)
		b.Label("loop")
		b.I(isa.ADDI, 1, 1, -1)
		b.B(isa.BGT, 1, "loop")
		b.Halt()
	})
	cfg := Config4Wide()
	c := MustNew(cfg, im, mem.New(), entry, nil)
	c.Run(1 << 40)
	if !c.Done() {
		t.Fatal("program did not halt")
	}
	ck, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !ck.MainHalted {
		t.Fatal("halted core checkpointed as running")
	}
	r, err := Restore(cfg, im, ck, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Done() {
		t.Error("restored halted core is not Done")
	}
}

func ExampleConfig_WarmFingerprint() {
	a := Config4Wide()
	a.Name = "label"
	b := Config4Wide()
	b.Perfect = Perfect{AllLoads: true}
	fmt.Println(a.WarmFingerprint() == b.WarmFingerprint())
	// Output: true
}

// TestRecheckpointByteIdentical: Checkpoint → Restore → Checkpoint must
// be byte-identical on a mid-run machine (full pipeline, in-flight stores,
// primed predictors).
func TestRecheckpointByteIdentical(t *testing.T) {
	im, entry, init := progen.Program(rand.New(rand.NewSource(11)))
	m := mem.New()
	init(m)
	core := MustNew(Config4Wide(), im, m, entry, nil)
	core.Run(200) // partway: plenty left in flight before the quiesce
	ck, err := core.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	r, err := Restore(core.Config(), core.Image(), ck, core.SliceTable())
	if err != nil {
		t.Fatal(err)
	}
	ck2, err := r.Checkpoint()
	if err != nil {
		t.Fatalf("re-checkpoint: %v", err)
	}
	// WarmRetired is observability metadata (the retired count of the run
	// that built the checkpoint); Restore ignores it, and the restored
	// core's counters start at zero. Everything else must round-trip
	// exactly.
	ck2.WarmRetired = ck.WarmRetired
	a, b := ck.EncodeBinary(), ck2.EncodeBinary()
	if len(a) != len(b) {
		t.Fatalf("re-encoded checkpoint is %d bytes, original %d", len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("checkpoints differ at byte %d", i)
		}
	}
}
