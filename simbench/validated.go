package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/cpu"
	"repro/internal/harness"
	"repro/internal/oracle"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// funcInsts is how many instructions the functional-engine probe runs per
// program.
const funcInsts = 2_000_000

// validated measures mcf, gcc and perl, with and without slices, from
// functional warm-up with the differential oracle on every measured region.
// Each pass writes its checkpoints to a fresh on-disk store, then a second
// checkpointer reads them back and measures again, so store writes sit
// beside loads. It is the only workload that runs the oracle, the compiled
// functional engine, the checkpoint codec and the disk store. The programs
// have baseline IPC 0.10–0.36, so most simulated cycles do nothing: skipping
// dead cycles should show here, against no change on dense.
type validated struct {
	names []string
	warms map[string]uint64
	run   uint64

	ws   []*workloads.Workload
	last []probeItem // the last pass's in-memory checkpoints
}

func newValidated(b *bench) *validated {
	v := &validated{names: []string{"mcf", "gcc", "perl"}, warms: map[string]uint64{}, run: 30_000}
	for _, n := range v.names {
		v.warms[n] = seedWarm(b)
	}
	return v
}

func (v *validated) setup(b *bench) error {
	v.ws = v.ws[:0]
	for _, n := range v.names {
		w, err := workloads.ByName(n)
		if err != nil {
			return err
		}
		v.ws = append(v.ws, w)
	}
	rs, err := v.pass(b, &passCtx{})
	b.check(rs)
	return err
}

func (v *validated) pass(b *bench, p *passCtx) ([]result, error) {
	dir, err := os.MkdirTemp(b.tmp, "ckpt-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg := cpu.Config4Wide()
	var rs []result
	v.last = v.last[:0]
	for phase, name := range []string{"warm", "disk_load"} {
		cp := harness.NewCheckpointer(dir, harness.WarmFunctional)
		for _, w := range v.ws {
			for _, slices := range []bool{false, true} {
				warm := v.warms[w.Name]
				key := specKey(w.Name, slices, warm, v.run)
				t0 := time.Now()
				sim := p.rec.open("sim", p.id)
				ck, src, err := cp.Warm(w, cfg, slices, warm)
				t1 := time.Now()
				p.rec.add(name, sim, t0, t1)
				want := harness.WarmFromSim
				if phase == 1 {
					want = harness.WarmFromDisk
				}
				res := result{key: key, want: v.run, err: err}
				if err == nil && src != want {
					res.err = fmt.Errorf("warm checkpoint came from %s, want %s", src, want)
				}
				if res.err == nil {
					res.snap, res.err = v.measure(b, p, sim, w, cfg, slices, warm, ck)
				}
				p.rec.close(sim)
				insts := v.run
				if phase == 0 {
					insts += warm
				}
				if phase == 0 && err == nil {
					v.last = append(v.last, probeItem{w: w, cfg: cfg, slices: slices, ck: ck})
				}
				b.sim(time.Since(t0), insts)
				rs = append(rs, res)
				if p.rec != nil {
					if phase == 0 {
						b.lay.funcWarmInsts += warm
						b.lay.funcWarmSec += t1.Sub(t0).Seconds()
						b.lay.warmBuildSec += t1.Sub(t0).Seconds()
					} else {
						b.lay.diskLoadSec += t1.Sub(t0).Seconds()
						b.lay.diskLoadN++
					}
				}
			}
		}
		if p.rec != nil {
			st := cp.Stats()
			b.lay.warmBuilds += st.WarmMisses
			b.lay.restores += uint64(len(v.ws) * 2)
			b.lay.diskStores += st.DiskStores
			b.lay.diskLoads += st.DiskLoads
		}
	}
	return rs, nil
}

// measure restores one region from ck and runs it under the oracle.
func (v *validated) measure(b *bench, p *passCtx, parent int, w *workloads.Workload, cfg cpu.Config, slices bool, warm uint64, ck *cpu.Checkpoint) (snap stats.Snapshot, err error) {
	core, err := b.lay.timedRestore(p, parent, cfg, w, ck, slices)
	if err != nil {
		return snap, err
	}
	orc := oracle.FromCheckpoint(w.Image, ck, oracle.Options{
		Workload: w.Name,
		WarmKey:  harness.WarmKeyFor(w.Name, slices, warm, harness.WarmFunctional, cfg),
	})
	orc.Attach(core)
	b.lay.timedRun(p, parent, core, v.run)
	if p.rec != nil {
		b.lay.oracleInsts += orc.Retired()
	}
	if err := core.CheckInvariants(); err != nil {
		return snap, fmt.Errorf("oracle: %w", err)
	}
	if err := orc.Err(); err != nil {
		return snap, err
	}
	return core.Snapshot(), nil
}

// traced measures, outside the passes, the oracle's overhead (each region
// run with and without it, alternating), the compiled functional engine
// alone, and the checkpoint codec.
func (v *validated) traced(b *bench) error {
	const reps = 3
	var rs []result
	for _, it := range v.last {
		warm := v.warms[it.w.Name]
		var with, without []float64
		for i := 0; i < 2*reps; i++ {
			core, err := cpu.Restore(it.cfg, it.w.Image, it.ck, sliceTable(it.w, it.slices))
			if err != nil {
				return err
			}
			var orc *oracle.Oracle
			if i%2 == 0 {
				orc = oracle.FromCheckpoint(it.w.Image, it.ck, oracle.Options{Workload: it.w.Name})
				orc.Attach(core)
			}
			t0 := time.Now()
			core.Run(v.run)
			d := time.Since(t0).Seconds()
			if orc != nil {
				with = append(with, d)
				continue
			}
			without = append(without, d)
			// The oracle only observes: the region must measure the same.
			rs = append(rs, result{key: specKey(it.w.Name, it.slices, warm, v.run), want: v.run, snap: core.Snapshot()})
		}
		b.lay.oracleWith += median(with)
		b.lay.oracleWithout += median(without)
	}
	b.check(rs)
	for _, w := range v.ws {
		m := w.NewMemory()
		t0 := time.Now()
		st, err := cpu.RunFunctional(w.Image, m, w.Entry, funcInsts)
		if err != nil {
			return err
		}
		b.lay.funcSec += time.Since(t0).Seconds()
		b.lay.funcInsts += st.Retired
	}
	return b.lay.probeCheckpoints(v.last, false)
}

func (v *validated) speedup(b *bench) float64 { return sliceSpeedup(b) }
