package main

import (
	"fmt"
	"time"

	"repro/internal/cpu"
	"repro/internal/harness"
	"repro/internal/workloads"
)

// regions measures fixed-length regions of a few programs, each with and
// without slices, restored one at a time from detailed-warm checkpoints
// primed in set-up; co-scheduled groups run whole through harness.RunMP.
//
// dense (crafty, eon, vortex; IPC 0.93–2.16) has work in every cycle, so
// dead-cycle skipping predicts no change there while per-cycle cost
// (execute-at-fetch) shows. Its eon+mcf pair interleaves mcf's stall cycles
// with eon's busy ones: a skip that assumes one idle program shows as a
// slowdown or a changed digest.
type regions struct {
	names  []string
	groups [][]string
	warms  map[string]uint64 // seed-derived warm-up length per program
	run    uint64

	specs []regionSpec
}

// mpRunDiv shortens a co-schedule's measured region relative to a single
// program's.
const mpRunDiv = 8

type regionSpec struct {
	key    string
	group  []*workloads.Workload // one program restored, or a co-schedule
	slices bool
	warm   uint64
	ck     *cpu.Checkpoint // nil for a co-schedule
}

func newRegions(b *bench, names []string, groups [][]string, run uint64) *regions {
	r := &regions{names: names, groups: groups, warms: map[string]uint64{}, run: run}
	for _, n := range names {
		r.warms[n] = seedWarm(b)
	}
	return r
}

func (r *regions) setup(b *bench) error {
	cfg := cpu.Config4Wide()
	cp := harness.NewCheckpointer("", harness.WarmDetailed)
	r.specs = r.specs[:0]
	for _, n := range r.names {
		w, err := workloads.ByName(n)
		if err != nil {
			return err
		}
		for _, slices := range []bool{false, true} {
			warm := r.warms[n]
			ck, _, err := cp.Warm(w, cfg, slices, warm)
			if err != nil {
				return err
			}
			r.specs = append(r.specs, regionSpec{
				key: specKey(n, slices, warm, r.run), group: []*workloads.Workload{w},
				slices: slices, warm: warm, ck: ck,
			})
		}
	}
	for _, g := range r.groups {
		var ws []*workloads.Workload
		for _, n := range g {
			w, err := workloads.ByName(n)
			if err != nil {
				return err
			}
			ws = append(ws, w)
		}
		// Co-schedules warm inline. mcf runs at about a fifth of eon's
		// speed, so short regions keep the pair's share of the pass close
		// to that of one single-program region.
		const warm = 10_000
		for _, slices := range []bool{false, true} {
			r.specs = append(r.specs, regionSpec{
				key:   specKey(fmt.Sprint(g), slices, warm, r.run/mpRunDiv),
				group: ws, slices: slices, warm: warm,
			})
		}
	}
	rs, err := r.pass(b, &passCtx{})
	b.check(rs)
	return err
}

// seedWarm picks a warm-up length, which moves where the measured region
// starts. The band is narrow so that the work per pass, and with it pass
// time, stays nearly the same from seed to seed.
func seedWarm(b *bench) uint64 { return uint64(b.uniform(36_000, 40_000)) }

// specKey names a measured region. sliceSpeedup pairs keys that differ
// only in "|base|" against "|slices|".
func specKey(prog string, slices bool, warm, run uint64) string {
	mode := "base"
	if slices {
		mode = "slices"
	}
	return fmt.Sprintf("%s|%s|warm=%d|run=%d", prog, mode, warm, run)
}

func (r *regions) pass(b *bench, p *passCtx) ([]result, error) {
	cfg := cpu.Config4Wide()
	rs := make([]result, 0, len(r.specs))
	for _, s := range r.specs {
		t0 := time.Now()
		sim := p.rec.open("sim", p.id)
		res := result{key: s.key, want: r.run}
		var insts uint64
		if s.ck != nil {
			core, err := b.lay.timedRestore(p, sim, cfg, s.group[0], s.ck, s.slices)
			if err == nil {
				b.lay.timedRun(p, sim, core, r.run)
				res.snap = core.Snapshot()
			}
			res.err = err
			insts = r.run
		} else {
			res.want = r.run / mpRunDiv
			m0 := time.Now()
			res.snap, res.err = harness.RunMP(s.group, harness.Params{}, s.slices, s.warm, res.want, harness.OracleOptions{})
			p.rec.add("run_mp", sim, m0, time.Now())
			insts = uint64(len(s.group)) * (s.warm + res.want)
		}
		p.rec.close(sim)
		b.sim(time.Since(t0), insts)
		rs = append(rs, res)
	}
	if p.rec != nil {
		b.lay.restores += uint64(len(r.names) * 2)
	}
	return rs, nil
}

func (r *regions) traced(b *bench) error {
	var items []probeItem
	for _, s := range r.specs {
		if s.ck != nil {
			items = append(items, probeItem{w: s.group[0], cfg: cpu.Config4Wide(), slices: s.slices, ck: s.ck})
		}
	}
	return b.lay.probeCheckpoints(items, false)
}

func (r *regions) speedup(b *bench) float64 { return sliceSpeedup(b) }
