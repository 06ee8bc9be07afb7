// Package repro's top-level benchmarks regenerate every table and figure
// of the paper's evaluation at reduced scale (the paper measured
// 100M-instruction regions on SPEC2000; these use the workloads' suggested
// regions scaled down so `go test -bench=.` completes in minutes). Run
// `go run ./cmd/experiments` for the full-scale tables.
//
// Benchmark naming maps directly to the paper:
//
//	BenchmarkTable2    — problem-instruction coverage (§2.2)
//	BenchmarkFigure1   — baseline / problem-perfect / all-perfect IPC (§2.3)
//	BenchmarkTable3    — slice characterization (§3.2)
//	BenchmarkFigure11  — slice vs constrained-limit speedups (§6)
//	BenchmarkTable4    — detailed slice-execution statistics (§6.1)
//	BenchmarkWorkload* — per-workload base vs slice IPC (the headline)
package repro

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/cpu"
	"repro/internal/harness"
	"repro/internal/mem"
	"repro/internal/oracle"
	"repro/internal/workloads"
)

var benchParams = harness.Params{Scale: 0.25}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := harness.NewEngine(benchParams, 0).Table2(workloads.All())
		if len(rows) != 12 {
			b.Fatal("missing rows")
		}
		if i == 0 {
			reportCoverage(b, rows)
		}
	}
}

func reportCoverage(b *testing.B, rows []harness.Table2Row) {
	var br, mem float64
	for _, r := range rows {
		br += r.BrMis
		mem += r.MisPct
	}
	b.ReportMetric(br/float64(len(rows)), "avg_mispred_coverage_%")
	b.ReportMetric(mem/float64(len(rows)), "avg_miss_coverage_%")
}

func BenchmarkFigure1(b *testing.B) {
	// The full 12×2×3 sweep is heavy; a representative subset keeps the
	// bench affordable while preserving the figure's shape.
	ws := pick(b, "vpr", "mcf", "eon", "gzip")
	for i := 0; i < b.N; i++ {
		rows := harness.NewEngine(benchParams, 0).Figure1(ws)
		if i == 0 {
			var gain float64
			for _, r := range rows {
				gain += r.ProbPerf[0] / r.Base[0]
			}
			b.ReportMetric((gain/float64(len(rows))-1)*100, "avg_prob_perfect_gain_%")
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := harness.Table3(workloads.All())
		if len(rows) == 0 {
			b.Fatal("no slices")
		}
	}
}

func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := harness.NewEngine(benchParams, 0).Figure11(workloads.All())
		if i == 0 {
			var maxSpeedup float64
			for _, r := range rows {
				if r.SliceSpeedup > maxSpeedup {
					maxSpeedup = r.SliceSpeedup
				}
			}
			b.ReportMetric(maxSpeedup, "max_slice_speedup_%")
		}
	}
}

func BenchmarkTable4(b *testing.B) {
	ws := pick(b, "vpr", "eon", "gzip", "mcf", "twolf", "gap")
	for i := 0; i < b.N; i++ {
		cols := harness.NewEngine(benchParams, 0).Table4(ws)
		if i == 0 {
			var frac float64
			for _, c := range cols {
				frac += c.FracFromLoads
			}
			b.ReportMetric(frac/float64(len(cols))*100, "avg_speedup_from_loads_%")
		}
	}
}

// BenchmarkExperimentsAll regenerates every simulation-backed table and
// figure through one shared engine — the `experiments -exp all` path —
// at jobs=1 and jobs=4. The memo cache collapses the cross-driver
// duplicates (Figure 11 and Table 4 share base and slice runs, Table 2
// shares Figure 1's 4-wide baseline), and the jobs=4 variant additionally
// fans the remaining unique runs across cores, so the speedup over
// jobs=1 scales with available CPUs.
//
// The engines share one warm-checkpoint cache, primed before the timer
// starts — the steady state of a persistent `-checkpoint-dir` (or of any
// engine re-run in one process): warm prefixes restore from snapshots
// instead of re-simulating, so the measured loop simulates measurement
// regions only. `warm_sims` reports the in-loop warm simulations, which
// must be zero.
func BenchmarkExperimentsAll(b *testing.B) {
	ws := pick(b, "vpr", "gzip", "mcf")
	runAll := func(e *harness.Engine) {
		e.Table2(ws)
		e.Figure1(ws)
		harness.Table3(ws)
		e.Figure11(ws)
		e.Table4(ws)
	}
	ckpt := harness.NewCheckpointer("", harness.WarmDetailed)
	{
		e := harness.NewEngine(benchParams, 0)
		e.Ckpt = ckpt
		runAll(e) // prime the checkpoint cache
	}
	primed := ckpt.Stats()
	for _, jobs := range []int{1, 4} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := harness.NewEngine(benchParams, jobs)
				e.Ckpt = ckpt
				runAll(e)
				if i == 0 {
					st := e.Stats()
					b.ReportMetric(float64(st.Misses), "sims")
					b.ReportMetric(float64(st.Hits), "memo_hits")
					b.ReportMetric(float64(st.SimInsts), "sim_insts")
					b.ReportMetric(float64(st.Checkpoints.WarmMisses-primed.WarmMisses), "warm_sims")
				}
			}
		})
	}
}

// Per-workload benches: simulated instructions per second and the base vs
// slice IPC pair for the headline comparison.
func BenchmarkWorkload(b *testing.B) {
	for _, w := range workloads.All() {
		w := w
		for _, slices := range []bool{false, true} {
			name := fmt.Sprintf("%s/slices=%v", w.Name, slices)
			b.Run(name, func(b *testing.B) {
				const region = 60_000
				for i := 0; i < b.N; i++ {
					var core *cpu.Core
					if slices {
						core = cpu.MustNew(cpu.Config4Wide(), w.Image, w.NewMemory(), w.Entry, w.SliceTable())
					} else {
						core = cpu.MustNew(cpu.Config4Wide(), w.Image, w.NewMemory(), w.Entry, nil)
					}
					core.Run(20_000)
					core.ResetStats()
					s := core.Run(region)
					if i == 0 {
						b.ReportMetric(s.IPC(), "IPC")
					}
				}
				b.SetBytes(region)
			})
		}
	}
}

// BenchmarkCycleLoopAllocs measures heap allocations in the steady-state
// cycle loop: the core is built and warmed outside the timed region, so
// allocs/op covers only Run() over the measured region. The loop recycles
// every per-instruction and per-event object — DynInsts through the core's
// pool, correlator predictions, instances and kill records through the
// correlator's free lists — and execute-at-fetch writes each Outcome in
// place. What remains is growth toward a working set: pooled slices
// reaching their steady size, first writes to memory pages, and per-PC stat
// records re-created after ResetStats. TestCycleLoopAllocBudget holds it
// to 0.05 per retired instruction (the pre-pool loop allocated ~17).
func BenchmarkCycleLoopAllocs(b *testing.B) {
	for _, name := range []string{"vpr", "mcf"} {
		for _, slices := range []bool{false, true} {
			w := pickOne(b, name)
			b.Run(fmt.Sprintf("%s/slices=%v", name, slices), func(b *testing.B) {
				const region = 60_000
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					var core *cpu.Core
					if slices {
						core = cpu.MustNew(cpu.Config4Wide(), w.Image, w.NewMemory(), w.Entry, w.SliceTable())
					} else {
						core = cpu.MustNew(cpu.Config4Wide(), w.Image, w.NewMemory(), w.Entry, nil)
					}
					core.Run(20_000)
					core.ResetStats()
					b.StartTimer()
					core.Run(region)
				}
				b.SetBytes(region)
			})
		}
	}
}

// TestCycleLoopAllocBudget is the enforced form of BenchmarkCycleLoopAllocs:
// a warmed core must average at most allocBudgetPerInst heap allocations
// per retired instruction over a measured region. It covers vpr with
// slices, gcc with slices, and mcf with slices under the differential
// oracle (the benchmark's validated configuration, whose per-N-cycle
// invariant sweeps allocate freely). The budget holds under -race too: the
// race runtime's shadow memory is not counted as heap allocations.
func TestCycleLoopAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting needs a quiet heap")
	}
	const allocBudgetPerInst = 0.05
	for _, tc := range []struct {
		name   string
		oracle bool
	}{
		{"vpr", false},
		{"gcc", false},
		{"mcf", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, err := workloads.ByName(tc.name)
			if err != nil {
				t.Fatal(err)
			}
			core := cpu.MustNew(cpu.Config4Wide(), w.Image, w.NewMemory(), w.Entry, w.SliceTable())
			var orc *oracle.Oracle
			if tc.oracle {
				orc = oracle.New(w.Image, w.NewMemory(), w.Entry, oracle.Options{Workload: w.Name})
				orc.Attach(core)
			}
			core.Run(20_000)
			core.ResetStats()

			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			s := core.Run(60_000)
			runtime.ReadMemStats(&after)

			allocs := after.Mallocs - before.Mallocs
			perInst := float64(allocs) / float64(s.MainRetired)
			t.Logf("%d allocs over %d retired instructions, %d forks, %d predictions (%.4f/inst)",
				allocs, s.MainRetired, s.Forks, s.PredsGenerated, perInst)
			// The region must exercise the fork and prediction paths, or
			// the budget says nothing about per-fork and per-prediction
			// allocations (live-in capture, correlator records).
			if s.Forks == 0 || s.PredsGenerated == 0 {
				t.Error("measured region forked no slices or generated no predictions; the budget covers nothing")
			}
			if orc != nil {
				if err := orc.Err(); err != nil {
					t.Fatalf("oracle: %v", err)
				}
				if orc.Retired() == 0 {
					t.Fatal("oracle observed no retirements")
				}
			}
			if perInst > allocBudgetPerInst {
				t.Errorf("cycle loop allocated %.4f/inst, budget is %.2f — pooling regressed", perInst, allocBudgetPerInst)
			}
		})
	}
}

func BenchmarkAblationQueueDepth(b *testing.B) {
	w := pickOne(b, "gzip")
	for _, depth := range []int{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := cpu.Config4Wide()
				cfg.PredQueueDepth = depth
				core := cpu.MustNew(cfg, w.Image, w.NewMemory(), w.Entry, w.SliceTable())
				core.Run(30_000)
				core.ResetStats()
				s := core.Run(60_000)
				if i == 0 {
					b.ReportMetric(s.IPC(), "IPC")
					b.ReportMetric(float64(s.Mispredicts), "mispredicts")
				}
			}
		})
	}
}

// BenchmarkAblationThreadContexts sweeps idle helper contexts (the paper:
// "most programs benefit from having more than one idle thread").
func BenchmarkAblationThreadContexts(b *testing.B) {
	w := pickOne(b, "vpr")
	for _, n := range []int{2, 3, 4, 6} {
		b.Run(fmt.Sprintf("contexts=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := cpu.Config4Wide()
				cfg.ThreadContexts = n
				core := cpu.MustNew(cfg, w.Image, w.NewMemory(), w.Entry, w.SliceTable())
				core.Run(30_000)
				core.ResetStats()
				s := core.Run(60_000)
				if i == 0 {
					b.ReportMetric(s.IPC(), "IPC")
					b.ReportMetric(float64(s.ForksIgnored), "forks_ignored")
				}
			}
		})
	}
}

// BenchmarkAblationPredictionsOff isolates prefetching from prediction
// (Table 4's "fraction of speedup from loads").
func BenchmarkAblationPredictionsOff(b *testing.B) {
	w := pickOne(b, "twolf")
	for _, predsOff := range []bool{false, true} {
		b.Run(fmt.Sprintf("predsOff=%v", predsOff), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := cpu.Config4Wide()
				cfg.SlicePredictionsOff = predsOff
				core := cpu.MustNew(cfg, w.Image, w.NewMemory(), w.Entry, w.SliceTable())
				core.Run(30_000)
				core.ResetStats()
				s := core.Run(60_000)
				if i == 0 {
					b.ReportMetric(s.IPC(), "IPC")
				}
			}
		})
	}
}

func pick(b *testing.B, names ...string) []*workloads.Workload {
	b.Helper()
	var ws []*workloads.Workload
	for _, n := range names {
		ws = append(ws, pickOne(b, n))
	}
	return ws
}

func pickOne(b *testing.B, name string) *workloads.Workload {
	b.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// BenchmarkFunctionalExec measures pure functional-model throughput on
// both engines: the legacy decode-dispatch interpreter
// (cpu.RunFunctionalInterp) and the compiled threaded-code engine behind
// cpu.RunFunctional. SetBytes(region) makes the MB/s column simulated
// megainstructions per wall second; the compiled/interp ratio is the
// headline speedup committed in BENCH_PR6.json.
func BenchmarkFunctionalExec(b *testing.B) {
	const region = 1_000_000
	type engine struct {
		name string
		run  func(w *workloads.Workload, m *mem.Memory) (cpu.FuncState, error)
	}
	engines := []engine{
		{"interp", func(w *workloads.Workload, m *mem.Memory) (cpu.FuncState, error) {
			return cpu.RunFunctionalInterp(w.Image, m, w.Entry, region)
		}},
		{"compiled", func(w *workloads.Workload, m *mem.Memory) (cpu.FuncState, error) {
			return cpu.RunFunctional(w.Image, m, w.Entry, region)
		}},
	}
	for _, name := range []string{"vpr", "mcf", "gzip"} {
		w := pickOne(b, name)
		for _, e := range engines {
			e := e
			b.Run(fmt.Sprintf("%s/engine=%s", name, e.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					// Memory image construction is workload setup, not
					// engine throughput; keep it off the clock.
					b.StopTimer()
					m := w.NewMemory()
					b.StartTimer()
					st, err := e.run(w, m)
					if err != nil {
						b.Fatal(err)
					}
					if st.Retired != region {
						b.Fatalf("retired %d of %d (workload halted early)", st.Retired, region)
					}
				}
				b.SetBytes(region)
			})
		}
	}
}
