package main

import (
	"runtime"
	"time"

	"repro/internal/cpu"
	"repro/internal/slicehw"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// layers accumulates per-layer measurements over the traced passes. Times
// and counts are reported per traced pass unless a metric's name says
// otherwise; NOTES.md lists what each metric covers on each workload.
type layers struct {
	passes int // traced passes

	// cpu: around (*cpu.Core).Run; on tables, around whole engine
	// simulations, warm builds included.
	runSec               float64
	cycles, insts        uint64
	mallocs, mallocInsts uint64

	// ckpt: Checkpointer.Warm, cpu.Restore, the codec and the disk store.
	warmBuilds, restores          uint64
	warmBuildSec                  float64
	restoreSec, encodeSec, decSec float64
	restoreN, codecN              int
	ckptBytes                     uint64
	diskStores, diskLoads         uint64
	diskLoadSec                   float64
	diskLoadN                     int

	// engine: EngineStats and driver calls (tables only).
	sims, memoHits uint64
	simBusySec     float64
	effSum         float64
	effN           int
	effJ1          float64
	passJ1         []float64 // jobs=1 set-up pass times
	driverSec      map[string]float64

	// oracle, isa and funcwarm (validated only).
	oracleInsts               uint64
	oracleWith, oracleWithout float64
	funcInsts, funcWarmInsts  uint64
	funcSec, funcWarmSec      float64

	// Filled in once the passes are done.
	self                   map[string]float64
	tracePassS, plainPassS float64
	spans, specSamples     int
}

// timedRun runs core for n instructions and, on a traced pass, records the
// run span and the cycle loop's counts and heap allocations.
func (l *layers) timedRun(p *passCtx, parent int, core *cpu.Core, n uint64) {
	if p.rec == nil {
		core.Run(n)
		return
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	s := core.Run(n)
	t1 := time.Now()
	runtime.ReadMemStats(&m1)
	p.rec.add("run", parent, t0, t1)
	l.runSec += t1.Sub(t0).Seconds()
	l.cycles += s.Cycles
	l.insts += s.MainRetired
	l.mallocs += m1.Mallocs - m0.Mallocs
	l.mallocInsts += s.MainRetired
}

// timedRestore is cpu.Restore with a restore span on traced passes.
func (l *layers) timedRestore(p *passCtx, parent int, cfg cpu.Config, w *workloads.Workload, ck *cpu.Checkpoint, slices bool) (*cpu.Core, error) {
	t0 := time.Now()
	core, err := cpu.Restore(cfg, w.Image, ck, sliceTable(w, slices))
	if p.rec != nil {
		t1 := time.Now()
		p.rec.add("restore", parent, t0, t1)
		l.restoreSec += t1.Sub(t0).Seconds()
		l.restoreN++
	}
	return core, err
}

// probeCheckpoints times the checkpoint codec on checkpoints a pass used:
// EncodeBinary, DecodeCheckpoint, and (when restores is set, for workloads
// whose restores happen inside the engine) cpu.Restore.
func (l *layers) probeCheckpoints(items []probeItem, restores bool) error {
	for _, it := range items {
		t0 := time.Now()
		enc := it.ck.EncodeBinary()
		t1 := time.Now()
		if _, err := cpu.DecodeCheckpoint(enc); err != nil {
			return err
		}
		t2 := time.Now()
		l.encodeSec += t1.Sub(t0).Seconds()
		l.decSec += t2.Sub(t1).Seconds()
		l.ckptBytes += uint64(len(enc))
		l.codecN++
		if restores {
			if _, err := cpu.Restore(it.cfg, it.w.Image, it.ck, sliceTable(it.w, it.slices)); err != nil {
				return err
			}
			l.restoreSec += time.Since(t2).Seconds()
			l.restoreN++
		}
	}
	return nil
}

// sliceTable is w's slice table when the region runs with slices.
func sliceTable(w *workloads.Workload, slices bool) *slicehw.Table {
	if !slices {
		return nil
	}
	return w.SliceTable()
}

type probeItem struct {
	w      *workloads.Workload
	cfg    cpu.Config
	slices bool
	ck     *cpu.Checkpoint
}

// metrics returns every per-layer metric. Simulated counts come from the
// distinct Snapshots the run produced, so they are exact and repeat on
// every run of the same seed.
func (l *layers) metrics(b *bench) map[string]metric {
	per := func(v float64) float64 { return ratio(v, float64(l.passes)) }
	var agg stats.Sim
	var l1d, l2 stats.CacheStats
	for _, s := range b.refs {
		for _, p := range programs(s) {
			p.Static = nil
			stats.Add(&agg, &p)
		}
		stats.Add(&l1d, &s.L1D)
		stats.Add(&l2, &s.L2)
	}
	used := agg.PredsUsed + agg.PredsLateUsed
	m := map[string]metric{
		"cpu.run_s":                     {per(l.runSec), "s"},
		"cpu.ns_per_cycle":              {ratio(l.runSec*1e9, float64(l.cycles)), "ns"},
		"cpu.ns_per_inst":               {ratio(l.runSec*1e9, float64(l.insts)), "ns"},
		"cpu.sim_cycles":                {per(float64(l.cycles)), "count"},
		"cpu.sim_cpi":                   {ratio(float64(l.cycles), float64(l.insts)), "cycles/inst"},
		"cpu.helper_fetch_per_inst":     {ratio(float64(agg.HelperFetched), float64(agg.MainRetired)), "ratio"},
		"cpu.allocs_per_inst":           {ratio(float64(l.mallocs), float64(l.mallocInsts)), "allocs/inst"},
		"cache.l1d_miss_pct":            {100 * ratio(float64(l1d.Misses), float64(l1d.Accesses)), "%"},
		"cache.l2_miss_pct":             {100 * ratio(float64(l2.Misses), float64(l2.Accesses)), "%"},
		"cache.misses_covered":          {float64(agg.MissesCovered), "count"},
		"cache.slice_prefetches":        {float64(agg.SlicePrefetches), "count"},
		"bpred.mispredicts_per_kinst":   {1000 * ratio(float64(agg.Mispredicts), float64(agg.MainRetired)), "1/kinst"},
		"slicehw.forks":                 {float64(agg.Forks), "count"},
		"slicehw.forks_ignored":         {float64(agg.ForksIgnored), "count"},
		"slicehw.forks_ignored_pct":     {100 * ratio(float64(agg.ForksIgnored), float64(agg.Forks)), "%"},
		"slicehw.preds_generated":       {float64(agg.PredsGenerated), "count"},
		"slicehw.preds_used":            {float64(used), "count"},
		"slicehw.preds_used_pct":        {100 * ratio(float64(used), float64(agg.PredsGenerated)), "%"},
		"slicehw.preds_late":            {float64(agg.PredsLateUsed), "count"},
		"slicehw.preds_late_pct":        {100 * ratio(float64(agg.PredsLateUsed), float64(used)), "%"},
		"ckpt.warm_builds":              {per(float64(l.warmBuilds)), "count"},
		"ckpt.warm_build_s":             {per(l.warmBuildSec), "s"},
		"ckpt.restores":                 {per(float64(l.restores)), "count"},
		"ckpt.restore_ms":               {1000 * ratio(l.restoreSec, float64(l.restoreN)), "ms"},
		"ckpt.bytes":                    {ratio(float64(l.ckptBytes), float64(l.codecN)), "B"},
		"ckpt.encode_ms":                {1000 * ratio(l.encodeSec, float64(l.codecN)), "ms"},
		"ckpt.decode_ms":                {1000 * ratio(l.decSec, float64(l.codecN)), "ms"},
		"ckpt.disk_stores":              {per(float64(l.diskStores)), "count"},
		"ckpt.disk_loads":               {per(float64(l.diskLoads)), "count"},
		"ckpt.disk_load_ms":             {1000 * ratio(l.diskLoadSec, float64(l.diskLoadN)), "ms"},
		"engine.sims":                   {per(float64(l.sims)), "count"},
		"engine.memo_hits":              {per(float64(l.memoHits)), "count"},
		"engine.sim_busy_s":             {per(l.simBusySec), "s"},
		"engine.parallel_efficiency":    {ratio(l.effSum, float64(l.effN)), "ratio"},
		"engine.parallel_efficiency_j1": {l.effJ1, "ratio"},
		"engine.pass_s_j1":              {median(l.passJ1), "s"},
		"oracle.checked_insts":          {per(float64(l.oracleInsts)), "count"},
		"oracle.overhead_pct":           {100 * ratio(l.oracleWith-l.oracleWithout, l.oracleWithout), "%"},
		"isa.func_minsts_per_s":         {ratio(float64(l.funcInsts), l.funcSec) / 1e6, "Minst/s"},
		"funcwarm.minsts_per_s":         {ratio(float64(l.funcWarmInsts), l.funcWarmSec) / 1e6, "Minst/s"},
		"trace.pass_s":                  {l.tracePassS, "s"},
		"trace.overhead_pct":            {100 * ratio(l.tracePassS-l.plainPassS, l.plainPassS), "%"},
		"trace.spans":                   {float64(l.spans), "count"},
		"spec.samples":                  {float64(l.specSamples), "count"},
	}
	for _, d := range driverNames {
		m["engine.driver_s."+d] = metric{per(l.driverSec[d]), "s"}
	}
	for _, n := range spanNames {
		m["self_s."+n] = metric{per(l.self[n]), "s"}
	}
	return m
}
