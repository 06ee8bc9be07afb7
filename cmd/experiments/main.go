// Command experiments regenerates every table and figure of the paper's
// evaluation:
//
//	experiments -exp table1     machine parameters
//	experiments -exp table2     problem-instruction coverage
//	experiments -exp figure1    baseline / problem-perfect / all-perfect IPC
//	experiments -exp table3     slice characterization
//	experiments -exp figure11   slice vs constrained-limit speedups
//	experiments -exp table4     detailed slice-execution statistics
//	experiments -exp figurepred slices vs value/correlation/perfect predictors
//	experiments -exp figureauto auto-constructed vs hand-built slices (closed loop)
//	experiments -exp figuremp   multi-programmed SMT contention (co-scheduled pairs/quads)
//	experiments -exp all        everything above except figurepred/figureauto/figuremp
//
// -scale shrinks the measured regions for quick runs (1.0 ≈ a few hundred
// thousand instructions per run; the paper used 100M-instruction regions).
//
// All experiments share one engine, so simulations common to several
// tables (e.g. the 4-wide baselines, or Figure 11's and Table 4's slice
// runs) execute once. -jobs bounds the worker pool (default GOMAXPROCS);
// -v prints one line per simulation plus a final hit/miss summary.
//
// -json runs every experiment (including figurepred, figureauto, and
// figuremp) and emits one machine-readable document (schema
// specslice-experiments/7) containing all tables and figures, for plotting
// scripts and output comparisons.
//
// -bpred swaps the direction predictor of every driver-built baseline
// configuration (registry spec, e.g. -bpred gshare:4096,10); figurepred's
// alternative legs stay pinned to their own predictors. The indirect
// predictor is always Table 1's cascaded predictor, which the core builds
// directly; no flag or config field selects it.
//
// -oracle validates every run against the functional model, with an
// invariant sweep every oracle.DefaultEvery (8192) cycles.
//
// -checkpoint-dir persists warm-up checkpoints across invocations: the
// first run simulates each distinct warm prefix once and stores a machine
// snapshot; later runs (any experiment, any measurement-only config
// change) restore it instead of re-simulating. -warm=functional replaces
// detailed warm-up simulation with a fast functional fast-forward that
// touch-warms caches and predictors (approximate; see DESIGN.md).
//
// -cpuprofile writes a CPU profile of the whole run; `go tool pprof -top
// -cum` on it splits the cycle loop's cost by pipeline stage.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cli"
	"repro/internal/harness"
	"repro/internal/oracle"
	"repro/internal/workloads"
)

// printSummary reports the engine's memo and warm-checkpoint counters.
func printSummary(e *harness.Engine) {
	st := e.Stats()
	fmt.Fprintf(os.Stderr, "engine: %d simulations, %d memo hits, %d insts simulated, %s sim time\n",
		st.Misses, st.Hits, st.SimInsts, st.SimWall.Round(time.Millisecond))
	ck := st.Checkpoints
	fmt.Fprintf(os.Stderr, "warm:   %d hits, %d misses, %d restores, disk %d loads / %d stores (%d bytes)\n",
		ck.WarmHits, ck.WarmMisses, ck.Restores, ck.DiskLoads, ck.DiskStores, ck.DiskBytes)
}

func main() {
	var (
		exp      = flag.String("exp", "all", "table1|table2|figure1|table3|figure11|table4|figurepred|figureauto|figuremp|all")
		scale    = flag.Float64("scale", 1.0, "region scale factor")
		only     = flag.String("workload", "", "restrict to one workload")
		jobs     = flag.Int("jobs", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		verbose  = flag.Bool("v", false, "log every simulation and the memo summary")
		asJSON   = flag.Bool("json", false, "emit all tables/figures as one JSON document (ignores -exp)")
		ckDir    = flag.String("checkpoint-dir", "", "persist warm-up checkpoints in this directory (created if missing)")
		warmFlg  = flag.String("warm", "detailed", "warm-up mode: detailed|functional")
		useOrc   = flag.Bool("oracle", false, "validate every run against the functional model (differential oracle)")
		orcOut   = flag.String("oracle-report", "", "write oracle divergence reports (JSON) to this file on failure")
		bpredFlg = flag.String("bpred", "", "direction predictor for baseline configs, name[:params]")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file (read it with go tool pprof)")
	)
	flag.Parse()
	cli.StartCPUProfile("experiments", *cpuProf)
	defer cli.StopCPUProfile()
	cli.CheckPredictors(*bpredFlg)

	// The experiment drivers panic on run errors (mustRunAll); turn an
	// oracle divergence back into a report plus a nonzero exit instead of
	// a stack trace.
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		err, ok := r.(error)
		var de *oracle.DivergenceError
		if !ok || !errors.As(err, &de) {
			panic(r)
		}
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		cli.WriteOracleReport("experiments", *orcOut, err)
		cli.Exit(1)
	}()

	warmMode, err := harness.ParseWarmMode(*warmFlg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		cli.Exit(1)
	}

	ws := workloads.All()
	if *only != "" {
		w, err := workloads.ByName(*only)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			cli.Exit(1)
		}
		ws = []*workloads.Workload{w}
	}

	e := harness.NewEngine(harness.Params{Scale: *scale, BPred: *bpredFlg}, *jobs)
	e.Ckpt = harness.NewCheckpointer(*ckDir, warmMode)
	e.Oracle = harness.OracleOptions{Enabled: *useOrc}
	if *verbose {
		e.Progress = func(ev harness.Event) {
			mode := "base"
			if ev.Spec.WithSlices {
				mode = "slices"
			}
			if ev.Memoized {
				fmt.Fprintf(os.Stderr, "memo  %-8s %-6s %s\n", ev.Spec.Workload, mode, ev.Spec.Cfg.Name)
				return
			}
			fmt.Fprintf(os.Stderr, "run   %-8s %-6s %-6s %9d insts  warm=%-4s %s\n",
				ev.Spec.Workload, mode, ev.Spec.Cfg.Name, ev.Insts, ev.Warm, ev.Wall.Round(time.Millisecond))
		}
	}

	if *asJSON {
		cli.PrintJSON(e.Export(ws))
		if *verbose {
			printSummary(e)
		}
		return
	}

	runExp := func(name string, f func()) {
		start := time.Now()
		f()
		fmt.Printf("(%s finished in %s)\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	all := *exp == "all"
	if all || *exp == "table1" {
		runExp("table1", func() { fmt.Print(harness.FormatTable1()) })
	}
	if all || *exp == "table2" {
		runExp("table2", func() { fmt.Print(harness.FormatTable2(e.Table2(ws))) })
	}
	if all || *exp == "figure1" {
		runExp("figure1", func() { fmt.Print(harness.FormatFigure1(e.Figure1(ws))) })
	}
	if all || *exp == "table3" {
		runExp("table3", func() { fmt.Print(harness.FormatTable3(harness.Table3(ws))) })
	}
	if all || *exp == "figure11" {
		runExp("figure11", func() { fmt.Print(harness.FormatFigure11(e.Figure11(ws))) })
	}
	if all || *exp == "table4" {
		runExp("table4", func() { fmt.Print(harness.FormatTable4(e.Table4(ws))) })
	}
	// figurepred is explicit-only in text mode: "all" reproduces exactly
	// the paper's tables and figures (and its output stays stable for
	// golden comparisons); the predictor comparison is an extension.
	if *exp == "figurepred" {
		runExp("figurepred", func() { fmt.Print(harness.FormatFigurePred(e.FigurePred(ws))) })
	}
	// figureauto is explicit-only for the same reason: the closed-loop
	// automatic construction pipeline is an extension on top of the
	// paper's hand-built slices.
	if *exp == "figureauto" {
		runExp("figureauto", func() { fmt.Print(harness.FormatFigureAuto(e.FigureAuto(ws))) })
	}
	// figuremp is explicit-only too: the multi-programmed contention study
	// is an extension beyond the paper's single-program evaluation.
	if *exp == "figuremp" {
		runExp("figuremp", func() { fmt.Print(harness.FormatFigureMP(e.FigureMP(ws))) })
	}
	switch *exp {
	case "all", "table1", "table2", "figure1", "table3", "figure11", "table4", "figurepred", "figureauto", "figuremp":
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		cli.Exit(1)
	}

	if *verbose {
		printSummary(e)
	}
}
