package harness

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/cpu"
	"repro/internal/stats"
	"repro/internal/wire"
)

// measureVia runs one measurement through cp and returns its snapshot.
func measureVia(t *testing.T, cp *Checkpointer, workload string, cfg cpu.Config, withSlices bool, warm, run uint64) stats.Snapshot {
	t.Helper()
	w := pick(t, workload)[0]
	core, _, err := RunOnce(cp, w, cfg, withSlices, warm, run, OracleOptions{}, nil, nil)
	if err != nil {
		t.Fatalf("RunOnce: %v", err)
	}
	return core.Snapshot()
}

// TestCheckpointerSharesWarmPrefixes locks the tentpole win: measurement
// configs that differ only in measurement-only fields share one warm
// simulation. Figure 11's constrained-limit run differs from the baseline
// only in Perfect, so vpr needs 3 warm simulations for its 4 runs — and
// Table 4 afterwards adds nothing but memo hits.
func TestCheckpointerSharesWarmPrefixes(t *testing.T) {
	e := NewEngine(small, 4)
	ws := pick(t, "vpr")

	e.Figure11(ws)
	st := e.Stats()
	if st.Misses != 3 {
		t.Fatalf("Figure11 ran %d simulations, want 3", st.Misses)
	}
	if st.Checkpoints.WarmMisses != 2 {
		t.Errorf("Figure11 simulated %d warm regions, want 2 (base and limit share one)", st.Checkpoints.WarmMisses)
	}
	if st.Checkpoints.WarmHits != 1 {
		t.Errorf("Figure11 warm hits = %d, want 1", st.Checkpoints.WarmHits)
	}
	if st.Checkpoints.Restores != 3 {
		t.Errorf("Figure11 restores = %d, want 3", st.Checkpoints.Restores)
	}

	e.Table4(ws)
	st = e.Stats()
	if st.Checkpoints.WarmMisses != 3 {
		t.Errorf("Figure11+Table4 warm misses = %d, want 3 (only predictions-off adds a warm)", st.Checkpoints.WarmMisses)
	}
	if st.Checkpoints.DiskLoads+st.Checkpoints.DiskStores != 0 {
		t.Errorf("disk counters moved without a Dir: %+v", st.Checkpoints)
	}
}

// TestCheckpointCacheHitEquivalence: a measurement served from a warm-cache
// hit must be snapshot-identical to the one that simulated its own warm.
func TestCheckpointCacheHitEquivalence(t *testing.T) {
	cfg := cpu.Config4Wide()
	cold := measureVia(t, NewCheckpointer("", WarmDetailed), "vpr", cfg, true, 22_500, 60_000)

	shared := NewCheckpointer("", WarmDetailed)
	measureVia(t, shared, "vpr", cfg, true, 22_500, 60_000) // prime
	hit := measureVia(t, shared, "vpr", cfg, true, 22_500, 60_000)

	if !reflect.DeepEqual(cold, hit) {
		t.Error("warm-cache hit produced a different snapshot than a cold run")
	}
	st := shared.Stats()
	if st.WarmMisses != 1 || st.WarmHits != 1 {
		t.Errorf("warm misses/hits = %d/%d, want 1/1", st.WarmMisses, st.WarmHits)
	}
}

// TestCheckpointDiskRoundTrip: a second checkpointer over the same
// directory serves the warm prefix from disk — zero warm simulations — and
// produces an identical measurement.
func TestCheckpointDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := cpu.Config4Wide()
	const warm, run = 22_500, 60_000

	first := NewCheckpointer(dir, WarmDetailed)
	a := measureVia(t, first, "vpr", cfg, true, warm, run)
	if st := first.Stats(); st.DiskStores != 1 || st.DiskBytes == 0 {
		t.Fatalf("first run disk stats: %+v, want 1 store", st)
	}

	second := NewCheckpointer(dir, WarmDetailed)
	b := measureVia(t, second, "vpr", cfg, true, warm, run)
	st := second.Stats()
	if st.WarmMisses != 0 {
		t.Errorf("second checkpointer simulated %d warm regions, want 0", st.WarmMisses)
	}
	if st.DiskLoads != 1 || st.WarmHits != 1 {
		t.Errorf("second checkpointer disk loads/warm hits = %d/%d, want 1/1", st.DiskLoads, st.WarmHits)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("disk-restored measurement differs from the run that built the checkpoint")
	}
}

// TestCheckpointDiskCorruption: a store entry that fails its checks is
// warned about, ignored and rebuilt, never restored into a measurement —
// both a flipped payload bit (caught by the container CRC) and a corrupt
// byte inside the hierarchy section under a recomputed CRC (caught by the
// validation restore, since decoding does not parse the component
// sections). The fallback measures exactly as the clean run did, and the
// rewritten entry loads again.
func TestCheckpointDiskCorruption(t *testing.T) {
	cfg := cpu.Config4Wide()
	const warm, run = 22_500, 60_000
	key := WarmKeyFor("vpr", false, warm, WarmDetailed, cfg)
	for _, tc := range []struct {
		name    string
		corrupt func(t *testing.T, b []byte) []byte
	}{
		{"payload-bit", func(t *testing.T, b []byte) []byte {
			b[len(b)-10] ^= 0x40 // flip one payload bit
			return b
		}},
		{"hierarchy-section", func(t *testing.T, b []byte) []byte {
			payload, err := parseCkptFile(b, key)
			if err != nil {
				t.Fatal(err)
			}
			ck, err := cpu.DecodeCheckpoint(payload)
			if err != nil {
				t.Fatal(err)
			}
			comp := ck.Components
			// Skip the return-address stacks, the two predictor
			// sections and the confidence table to reach the hierarchy.
			r := wire.NewReader(comp)
			for i, n := 0, int(r.U64()); i < n; i++ {
				r.Raw(int(r.U64())*8 + 8)
			}
			for i := 0; i < 2; i++ {
				n := r.U64()
				r.U32()
				r.Raw(int(n))
			}
			if r.Bool() {
				r.Raw(int(r.U64()))
			}
			if r.Err() != nil {
				t.Fatal(r.Err())
			}
			// The L1D's line count and listed-line count, then the first
			// line: index, tag, then its dirty byte.
			comp[len(comp)-r.Len()+16+12] = 2
			return ckptFile(key, ck.EncodeBinary())
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			good := measureVia(t, NewCheckpointer(dir, WarmDetailed), "vpr", cfg, false, warm, run)

			files, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
			if err != nil || len(files) != 1 {
				t.Fatalf("want exactly one checkpoint file, got %v (%v)", files, err)
			}
			b, err := os.ReadFile(files[0])
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(files[0], tc.corrupt(t, b), 0o644); err != nil {
				t.Fatal(err)
			}

			cp := NewCheckpointer(dir, WarmDetailed)
			after := measureVia(t, cp, "vpr", cfg, false, warm, run)
			st := cp.Stats()
			if st.DiskLoads != 0 {
				t.Errorf("corrupt entry was loaded (DiskLoads=%d)", st.DiskLoads)
			}
			if st.WarmMisses != 1 {
				t.Errorf("corrupt entry did not fall back to simulating (WarmMisses=%d)", st.WarmMisses)
			}
			if !reflect.DeepEqual(good, after) {
				t.Error("fallback after corruption produced a different snapshot")
			}
			// The fallback rewrites the entry; a third checkpointer loads it again.
			if st.DiskStores != 1 {
				t.Errorf("fallback did not rewrite the corrupt entry (DiskStores=%d)", st.DiskStores)
			}
			third := NewCheckpointer(dir, WarmDetailed)
			measureVia(t, third, "vpr", cfg, false, warm, run)
			if st := third.Stats(); st.DiskLoads != 1 || st.Restores != 1 {
				t.Errorf("rewritten entry not loadable (DiskLoads=%d, Restores=%d)", st.DiskLoads, st.Restores)
			}
		})
	}
}

// TestCheckpointStoreRejectsStaleEntries: an entry written under the
// previous schema, and a current-schema entry with a valid CRC whose memory
// was encoded over another image, must each be warned about, ignored and
// rebuilt — never restored.
func TestCheckpointStoreRejectsStaleEntries(t *testing.T) {
	w, other := pick(t, "vpr")[0], pick(t, "gzip")[0]
	cfg := cpu.Config4Wide()
	const warm = 22_500
	key := WarmKeyFor(w.Name, false, warm, WarmDetailed, cfg)
	ref, _, err := NewCheckpointer("", WarmDetailed).Warm(w, cfg, false, warm)
	if err != nil {
		t.Fatal(err)
	}
	payload := ref.EncodeBinary()

	schema2 := ckptFile(key, payload)
	binary.LittleEndian.PutUint32(schema2[len(ckptMagic):], 2)

	// The memory section closes the payload and opens with its root digest.
	foreign := append([]byte(nil), payload...)
	sum := other.MemImage().Digest()
	var memSection wire.Writer
	ref.Mem.Encode(&memSection)
	copy(foreign[len(foreign)-len(memSection.Bytes()):], sum[:])

	for _, tc := range []struct {
		name, want string
		file       []byte
	}{
		{"schema-2", "schema version 2", schema2},
		{"foreign-root", "encoded over root", ckptFile(key, foreign)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(ckptPath(dir, key), tc.file, 0o644); err != nil {
				t.Fatal(err)
			}
			cp := NewCheckpointer(dir, WarmDetailed)
			var ck *cpu.Checkpoint
			var src WarmSource
			warning := captureStderr(t, func() {
				ck, src, err = cp.Warm(w, cfg, false, warm)
			})
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(warning, "ignoring checkpoint") || !strings.Contains(warning, tc.want) {
				t.Errorf("warning %q does not name the stale entry (want %q)", warning, tc.want)
			}
			if st := cp.Stats(); src != WarmFromSim || st.DiskLoads != 0 || st.WarmMisses != 1 || st.DiskStores != 1 {
				t.Errorf("stale entry: src=%s stats=%+v, want a rebuild that rewrites the entry", src, st)
			}
			if !bytes.Equal(ck.EncodeBinary(), payload) {
				t.Error("rebuilt checkpoint differs from the reference")
			}
			if _, src, err := NewCheckpointer(dir, WarmDetailed).Warm(w, cfg, false, warm); err != nil || src != WarmFromDisk {
				t.Errorf("rewritten entry: src=%s err=%v, want a disk load", src, err)
			}
		})
	}
}

// captureStderr runs f with os.Stderr redirected and returns what it wrote.
func captureStderr(t *testing.T, f func()) string {
	t.Helper()
	tmp, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	saved := os.Stderr
	os.Stderr = tmp
	defer func() { os.Stderr = saved }()
	f()
	b, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestConcurrentStoreWritersAgree: independent Checkpointers (standing in
// for processes — they share only the directory) racing on one warm key
// may each build it, but under -race every one must return the same
// machine state, every store must succeed, the published entry must load
// whole, and no temp file may be left behind. The builds finish at
// slightly different times, so the writers then republish the entry in a
// tight loop to make their stores overlap.
func TestConcurrentStoreWritersAgree(t *testing.T) {
	dir := t.TempDir()
	w := pick(t, "vpr")[0]
	cfg := cpu.Config4Wide()
	const warm = 22_500
	const n, republish = 4, 10
	key := WarmKeyFor(w.Name, true, warm, WarmDetailed, cfg)

	cks := make([]*cpu.Checkpoint, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		cp := NewCheckpointer(dir, WarmDetailed)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ck, src, err := cp.Warm(w, cfg, true, warm)
			if err != nil {
				t.Errorf("writer %d: %v", i, err)
				return
			}
			cks[i] = ck
			if st := cp.Stats(); src == WarmFromSim && st.DiskStores != 1 {
				t.Errorf("writer %d built but stored %d entries, want 1", i, st.DiskStores)
			}
			for r := 0; r < republish; r++ {
				if cp.diskStore(key, ck) == 0 {
					t.Errorf("writer %d: republish %d failed", i, r)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	ref := cks[0].EncodeBinary()
	for i := 1; i < n; i++ {
		if !bytes.Equal(ref, cks[i].EncodeBinary()) {
			t.Errorf("writer %d returned a different checkpoint than writer 0", i)
		}
	}
	ck, src, err := NewCheckpointer(dir, WarmDetailed).Warm(w, cfg, true, warm)
	if err != nil || src != WarmFromDisk {
		t.Fatalf("fresh checkpointer: src=%s err=%v, want a disk load", src, err)
	}
	if !bytes.Equal(ref, ck.EncodeBinary()) {
		t.Error("published entry differs from the writers' checkpoint")
	}
	tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp*"))
	if err != nil || len(tmps) != 0 {
		t.Errorf("temp files left behind: %v (%v)", tmps, err)
	}
}

// TestConcurrentRestoresShareOneCheckpoint runs many concurrent
// measurements off one shared checkpoint (the engine fan-out pattern)
// under -race: restores must not alias mutable state, and every result
// must be identical.
func TestConcurrentRestoresShareOneCheckpoint(t *testing.T) {
	cp := NewCheckpointer("", WarmDetailed)
	w := pick(t, "mcf")[0]
	cfg := cpu.Config4Wide()
	const warm, run = 22_500, 60_000

	const n = 8
	snaps := make([]stats.Snapshot, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			core, _, err := RunOnce(cp, w, cfg, true, warm, run, OracleOptions{}, nil, nil)
			if err != nil {
				t.Error(err)
				return
			}
			snaps[i] = core.Snapshot()
		}(i)
	}
	wg.Wait()

	for i := 1; i < n; i++ {
		if !reflect.DeepEqual(snaps[0], snaps[i]) {
			t.Fatalf("concurrent restore %d diverged from restore 0", i)
		}
	}
	if st := cp.Stats(); st.WarmMisses != 1 || st.Restores != n {
		t.Errorf("warm misses/restores = %d/%d, want 1/%d", st.WarmMisses, st.Restores, n)
	}
}

// functionalWarmIPCTolerance bounds how far a measurement from a
// functional-warm checkpoint may drift from the detailed-warm reference.
// Functional warming compresses time (1 IPC), skips wrong-path cache
// pollution, and starts slices cold, so it is *not* behavior-identical;
// empirically the measured IPC lands within 0.1% on every workload at
// bench scale (see DESIGN.md), so 2% leaves generous slack.
const functionalWarmIPCTolerance = 0.02

// TestFunctionalWarmWithinTolerance validates the opt-in fast-forward
// against detailed warm on the measured region's IPC.
func TestFunctionalWarmWithinTolerance(t *testing.T) {
	const warm, run = 37_500, 100_000
	for _, name := range []string{"vpr", "gzip", "mcf"} {
		t.Run(name, func(t *testing.T) {
			cfg := cpu.Config4Wide()
			det := measureVia(t, NewCheckpointer("", WarmDetailed), name, cfg, false, warm, run)
			fun := measureVia(t, NewCheckpointer("", WarmFunctional), name, cfg, false, warm, run)
			dIPC, fIPC := det.Sim.IPC(), fun.Sim.IPC()
			drift := math.Abs(fIPC-dIPC) / dIPC
			t.Logf("detailed IPC %.4f, functional IPC %.4f, drift %.2f%%", dIPC, fIPC, drift*100)
			if drift > functionalWarmIPCTolerance {
				t.Errorf("functional warm drifted %.2f%% from detailed, tolerance %.0f%%",
					drift*100, functionalWarmIPCTolerance*100)
			}
		})
	}
}

// TestParseWarmMode pins flag parsing.
func TestParseWarmMode(t *testing.T) {
	for in, want := range map[string]WarmMode{
		"": WarmDetailed, "detailed": WarmDetailed, "functional": WarmFunctional,
	} {
		got, err := ParseWarmMode(in)
		if err != nil || got != want {
			t.Errorf("ParseWarmMode(%q) = %q, %v", in, got, err)
		}
	}
	for _, bad := range []string{"magic", "functional-interp"} {
		if _, err := ParseWarmMode(bad); err == nil {
			t.Errorf("ParseWarmMode accepted %q", bad)
		}
	}
}

// TestWarmKeySharing pins which config changes share a warm prefix.
func TestWarmKeySharing(t *testing.T) {
	base := cpu.Config4Wide()
	perf := cpu.Config4Wide()
	perf.Perfect = cpu.Perfect{AllBranches: true, AllLoads: true}
	if WarmKeyFor("vpr", false, 100, WarmDetailed, base) != WarmKeyFor("vpr", false, 100, WarmDetailed, perf) {
		t.Error("perfect-mode change split the warm key")
	}
	predsOff := cpu.Config4Wide()
	predsOff.SlicePredictionsOff = true
	distinct := []string{
		WarmKeyFor("vpr", false, 100, WarmDetailed, base),
		WarmKeyFor("gzip", false, 100, WarmDetailed, base),
		WarmKeyFor("vpr", true, 100, WarmDetailed, base),
		WarmKeyFor("vpr", false, 101, WarmDetailed, base),
		WarmKeyFor("vpr", false, 100, WarmFunctional, base),
		WarmKeyFor("vpr", false, 100, WarmDetailed, predsOff),
		WarmKeyFor("vpr", false, 100, WarmDetailed, cpu.Config8Wide()),
	}
	seen := map[string]bool{}
	for i, k := range distinct {
		if seen[k] {
			t.Errorf("warm key %d collides: %s", i, k)
		}
		seen[k] = true
	}
}

// TestRegionClampWarning covers the silent-floor fix: a scale small enough
// to hit the 10k/20k floors must warn exactly once per process.
func TestRegionClampWarning(t *testing.T) {
	var mu sync.Mutex
	var warnings []string
	regionClampWarnf = func(format string, args ...any) {
		mu.Lock()
		warnings = append(warnings, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	t.Cleanup(func() { regionClampWarnf = warnf })

	w := pick(t, "vpr")[0]

	regionClampWarned.Store(false)
	warnings = nil
	if warm, run := (Params{Scale: 1}).regions(w); warm < minWarmRegion || run < minRunRegion {
		t.Fatalf("full-scale regions unexpectedly tiny: %d/%d", warm, run)
	}
	if len(warnings) != 0 {
		t.Fatalf("full scale warned: %v", warnings)
	}

	tiny := Params{Scale: 0.01}
	warm, run := tiny.regions(w)
	if warm != minWarmRegion || run != minRunRegion {
		t.Errorf("tiny scale regions = %d/%d, want the %d/%d floors", warm, run, minWarmRegion, minRunRegion)
	}
	if len(warnings) != 1 {
		t.Fatalf("tiny scale produced %d warnings, want 1: %v", len(warnings), warnings)
	}
	if !strings.Contains(warnings[0], "floors") || !strings.Contains(warnings[0], "vpr") {
		t.Errorf("warning lacks context: %q", warnings[0])
	}

	// Second clamp: deduped.
	tiny.regions(w)
	if len(warnings) != 1 {
		t.Errorf("clamp warning repeated: %v", warnings)
	}
}
