package harness

import (
	"path/filepath"
	"testing"

	"repro/internal/cpu"
)

// TestCheckpointGuardHitNotPersisted: a warm-up truncated by the MaxCycles
// guard yields a checkpoint of the wrong machine state; it may serve this
// process (with a warning) but must never reach the on-disk store, where
// it would poison every later run sharing the warm key.
func TestCheckpointGuardHitNotPersisted(t *testing.T) {
	dir := t.TempDir()
	w := pick(t, "vpr")[0]
	cfg := cpu.Config4Wide()
	cfg.MaxCycles = 200 // far below what the warm region needs

	cp := NewCheckpointer(dir, WarmDetailed)
	ck, src, err := cp.Warm(w, cfg, false, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if ck == nil || src != WarmFromSim {
		t.Fatalf("warm: ck=%v src=%s, want a simulated checkpoint", ck, src)
	}
	if ck.WarmRetired >= 20_000 {
		t.Fatalf("warm retired %d instructions under a %d-cycle guard; the test no longer truncates", ck.WarmRetired, cfg.MaxCycles)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 0 {
		t.Fatalf("truncated warm checkpoint was persisted: %v", files)
	}
	if st := cp.Stats(); st.DiskStores != 0 {
		t.Fatalf("DiskStores = %d, want 0", st.DiskStores)
	}

	// An untruncated warm through the same store still persists.
	cp2 := NewCheckpointer(dir, WarmDetailed)
	if _, _, err := cp2.Warm(w, cpu.Config4Wide(), false, 20_000); err != nil {
		t.Fatal(err)
	}
	if st := cp2.Stats(); st.DiskStores != 1 {
		t.Fatalf("healthy warm DiskStores = %d, want 1", st.DiskStores)
	}
}

// TestEngineOracleCleanAcrossWarmModes runs oracle-validated measurements
// through the engine on every warm path — detailed, functional, and
// checkpoint restore-from-disk — and requires zero divergences, with and
// without slices.
func TestEngineOracleCleanAcrossWarmModes(t *testing.T) {
	w := pick(t, "vpr")[0]
	run := func(t *testing.T, cp *Checkpointer) {
		e := NewEngine(small, 2)
		e.Ckpt = cp
		e.Oracle = OracleOptions{Enabled: true, every: 1024}
		specs := []RunSpec{e.baseSpec(w, cpu.Config4Wide()), e.sliceSpec(w, cpu.Config4Wide())}
		if _, err := e.RunAll(specs); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("detailed", func(t *testing.T) { run(t, NewCheckpointer("", WarmDetailed)) })
	t.Run("functional", func(t *testing.T) { run(t, NewCheckpointer("", WarmFunctional)) })
	t.Run("checkpoint-restore", func(t *testing.T) {
		dir := t.TempDir()
		run(t, NewCheckpointer(dir, WarmDetailed)) // builds the disk entries
		cp := NewCheckpointer(dir, WarmDetailed)
		run(t, cp) // restores them
		if st := cp.Stats(); st.WarmMisses != 0 {
			t.Fatalf("restore pass simulated %d warm regions, want 0", st.WarmMisses)
		}
	})
}

// TestEngineOracleErrorPropagatesToWaiters: when an oracle-failed (or
// otherwise errored) run is requested twice, the memo waiter must see the
// same error, not a nil result.
func TestEngineOracleErrorPropagatesToWaiters(t *testing.T) {
	e := NewEngine(small, 2)
	spec := RunSpec{Workload: "no-such-workload", Cfg: cpu.Config4Wide(), Warm: 10_000, Run: 20_000}
	if _, err := e.Run(spec); err == nil {
		t.Fatal("first run of an unknown workload succeeded")
	}
	res, err := e.Run(spec)
	if err == nil {
		t.Fatal("memoized error was swallowed: second run returned nil error")
	}
	if res != nil {
		t.Fatalf("second run returned a result (%v) alongside the error", res)
	}
}
