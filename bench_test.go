// Package repro's top-level tests hold what simbench, the repository's
// benchmark (`bash simbench/run.sh`, metrics named in BENCHMARK.json), does
// not: the enforced allocation budget of the detailed cycle loop, and the
// two hardware ablations EXPERIMENTS.md cites (`go test -run '^$' -bench
// Ablation .`), which sweep one slice-hardware parameter each and report
// the IPC it buys. Timing the simulator is simbench's job alone.
package repro

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/cpu"
	"repro/internal/oracle"
	"repro/internal/workloads"
)

// TestCycleLoopAllocBudget holds the steady-state cycle loop to
// allocBudgetPerInst heap allocations per retired instruction (the pre-pool
// loop allocated ~17); simbench reports the same figure as
// cpu.allocs_per_inst. The core is built and warmed before counting starts,
// so only Run() over the measured region is counted. The loop recycles
// every per-instruction and per-event object — DynInsts through the core's
// pool, correlator predictions, instances and kill records through the
// correlator's free lists — and execute-at-fetch writes each Outcome in
// place. What remains is growth toward a working set: pooled slices
// reaching their steady size, first writes to memory pages, and per-PC stat
// records re-created after ResetStats. It covers vpr with
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
			// allocations (correlator records).
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

func pickOne(b *testing.B, name string) *workloads.Workload {
	b.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	return w
}
