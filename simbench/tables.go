package main

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/harness"
	"repro/internal/workloads"
)

// driverNames are the tables pass's drivers, in the order experiments
// -exp all runs them.
var driverNames = []string{"table2", "figure1", "table3", "figure11", "table4"}

// tables regenerates Table 2, Figure 1, Table 3, Figure 11 and Table 4 over
// all twelve programs per pass, each pass on a fresh engine with a fresh
// in-memory checkpointer: what a user pays for experiments -exp all. It is
// the only workload that exercises the engine memo, the worker pool and
// cold warm builds.
type tables struct {
	params   harness.Params
	ws       []*workloads.Workload
	ref      string      // text of the jobs=1 pass made in set-up
	speedPct float64     // Figure 11's mean slice speedup in the reference pass
	last     *tablesPass // the last traced pass, for the checkpoint probe
}

func newTables(b *bench) *tables {
	// The seed picks the scale in a narrow band, so region lengths (and
	// with them pass time) move by at most a few percent between seeds.
	return &tables{params: harness.Params{Scale: b.uniform(0.068, 0.072)}}
}

// tablesPass is one pass's outcome.
type tablesPass struct {
	text  string
	e     *harness.Engine
	miss  []harness.Event // simulations that ran, in completion order
	fig11 []harness.Figure11Row
	wall  time.Duration
	drive []float64 // seconds per driver, index-aligned with driverNames
}

func (t *tables) runPass(jobs int, p *passCtx) (*tablesPass, error) {
	out := &tablesPass{e: harness.NewEngine(t.params, jobs)}
	var mu sync.Mutex
	driverSpan := 0
	out.e.Progress = func(ev harness.Event) {
		if ev.Memoized {
			return
		}
		now := time.Now()
		mu.Lock()
		out.miss = append(out.miss, ev)
		parent := driverSpan
		mu.Unlock()
		p.rec.add("sim", parent, now.Add(-ev.Wall), now)
	}
	drivers := []func(e *harness.Engine) string{
		func(e *harness.Engine) string { return harness.FormatTable2(e.Table2(t.ws)) },
		func(e *harness.Engine) string { return harness.FormatFigure1(e.Figure1(t.ws)) },
		func(e *harness.Engine) string { return harness.FormatTable3(harness.Table3(t.ws)) },
		func(e *harness.Engine) string {
			out.fig11 = e.Figure11(t.ws)
			return harness.FormatFigure11(out.fig11)
		},
		func(e *harness.Engine) string { return harness.FormatTable4(e.Table4(t.ws)) },
	}
	var text strings.Builder
	start := time.Now()
	for i, drive := range drivers {
		mu.Lock()
		driverSpan = p.rec.open("driver", p.id)
		mu.Unlock()
		d0 := time.Now()
		s, err := runDriver(out.e, drive)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", driverNames[i], err)
		}
		p.rec.close(driverSpan)
		out.drive = append(out.drive, time.Since(d0).Seconds())
		text.WriteString(s)
	}
	out.wall = time.Since(start)
	out.text = text.String()
	out.e.Progress = nil
	return out, nil
}

// runDriver turns a driver's panic on a failed simulation into an error.
func runDriver(e *harness.Engine, drive func(*harness.Engine) string) (s string, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	return drive(e), nil
}

// results fetches every simulation of a finished pass from the engine's
// memo, for checking once the pass's timer has stopped.
func (tp *tablesPass) results() []result {
	rs := make([]result, 0, len(tp.miss))
	for _, ev := range tp.miss {
		res, err := tp.e.Run(ev.Spec)
		r := result{key: ev.Spec.Key(), want: ev.Spec.Run, err: err}
		if err == nil {
			r.snap = res.Snap
		}
		rs = append(rs, r)
	}
	return rs
}

func (t *tables) setup(b *bench) error {
	t.ws = workloads.All()
	tp, err := t.runPass(1, &passCtx{})
	if err != nil {
		return err
	}
	if t.ref == "" {
		t.ref = tp.text
		var sum float64
		for _, r := range tp.fig11 {
			sum += r.SliceSpeedup
		}
		t.speedPct = ratio(sum, float64(len(tp.fig11)))
	} else {
		b.checkText("set-up pass", tp.text, t.ref)
	}
	b.check(tp.results())
	st := tp.e.Stats()
	b.lay.effJ1 = ratio(st.SimWall.Seconds(), tp.wall.Seconds())
	b.lay.passJ1 = append(b.lay.passJ1, tp.wall.Seconds())
	return nil
}

func (t *tables) pass(b *bench, p *passCtx) ([]result, error) {
	jobs := runtime.NumCPU()
	var m0, m1 runtime.MemStats
	if p.rec != nil {
		runtime.ReadMemStats(&m0)
	}
	tp, err := t.runPass(jobs, p)
	if err != nil {
		return nil, err
	}
	if p.rec != nil {
		runtime.ReadMemStats(&m1)
	}
	st := tp.e.Stats()
	for _, ev := range tp.miss {
		b.sim(ev.Wall, ev.Insts)
	}
	b.checkText("tables pass", tp.text, t.ref)
	rs := tp.results()
	if p.rec == nil {
		return rs, nil
	}
	l := &b.lay
	l.sims += st.Misses
	l.memoHits += st.Hits
	l.simBusySec += st.SimWall.Seconds()
	l.effSum += ratio(st.SimWall.Seconds(), tp.wall.Seconds()*float64(jobs))
	l.effN++
	l.warmBuilds += st.Checkpoints.WarmMisses
	l.restores += st.Checkpoints.Restores
	// The engine times each simulation as a whole, warm build included
	// when it made one; the warm checkpoint's cycle count splits that time.
	for i, ev := range tp.miss {
		if rs[i].err != nil {
			continue
		}
		cycles := float64(rs[i].snap.Sim.Cycles)
		total := cycles
		if ev.Warm == harness.WarmFromSim {
			s := ev.Spec
			w, err := workloads.ByName(s.Workload)
			if err != nil {
				return nil, err
			}
			ck, _, err := tp.e.Ckpt.Warm(w, s.Cfg, s.WithSlices, s.Warm)
			if err != nil {
				return nil, err
			}
			total += float64(ck.Now)
			l.warmBuildSec += ev.Wall.Seconds() * ratio(float64(ck.Now), total)
		}
		l.runSec += ev.Wall.Seconds()
		l.cycles += uint64(total)
		l.insts += ev.Insts
	}
	if l.driverSec == nil {
		l.driverSec = map[string]float64{}
	}
	for i, s := range tp.drive {
		l.driverSec[driverNames[i]] += s
	}
	// Engine workers allocate concurrently, so allocations are counted
	// over the whole pass.
	l.mallocs += m1.Mallocs - m0.Mallocs
	l.mallocInsts += st.SimInsts
	t.last = tp
	return rs, nil
}

func (t *tables) traced(b *bench) error {
	seen := map[string]bool{}
	var items []probeItem
	for _, ev := range t.last.miss {
		s := ev.Spec
		key := harness.WarmKeyFor(s.Workload, s.WithSlices, s.Warm, harness.WarmDetailed, s.Cfg)
		if seen[key] {
			continue
		}
		seen[key] = true
		w, err := workloads.ByName(s.Workload)
		if err != nil {
			return err
		}
		ck, _, err := t.last.e.Ckpt.Warm(w, s.Cfg, s.WithSlices, s.Warm)
		if err != nil {
			return err
		}
		items = append(items, probeItem{w: w, cfg: s.Cfg, slices: s.WithSlices, ck: ck})
	}
	return b.lay.probeCheckpoints(items, true)
}

func (t *tables) speedup(*bench) float64 { return t.speedPct }
