// Command slicesim runs one workload on the simulated SMT machine, with or
// without its speculative slices, and reports the run's statistics.
//
// Usage:
//
//	slicesim -workload vpr -slices -run 400000
//	slicesim -workload mcf -wide8
//	slicesim -workload gzip -disasm            # print program + slice code
//	slicesim -workload gzip -top 5             # problem instructions (Table 2's row)
//	slicesim -workload eon -slices -trace      # stream telemetry events as text
//	slicesim -workload eon -trace -trace-format=jsonl -trace-out=events.jsonl
//	slicesim -workload eon -trace -trace-format=chrome -trace-out=trace.json
//	slicesim -workload vpr -bpred gshare:4096,10   # swap the direction predictor
//
// -bpred selects the direction predictor from the registry in
// internal/bpred ("name" or "name:params"); an unknown name errors with
// the list of registered predictors. The indirect predictor is always the
// cascaded predictor, the registry's only one.
//
// -oracle validates the run against the functional model, with an
// invariant sweep every oracle.DefaultEvery (8192) cycles.
//
// Warm-up runs under the warm configuration and is excluded from the
// reported statistics. -checkpoint-dir caches the warmed machine state on
// disk so repeated invocations skip the warm-up simulation entirely;
// -warm=functional fast-forwards the warm-up functionally instead of
// simulating it cycle by cycle (approximate; see DESIGN.md).
//
// -cpuprofile writes a CPU profile of the run; `go tool pprof -top -cum`
// on it splits the cycle loop's cost by pipeline stage:
//
//	slicesim -workload mcf -slices -run 20000 -cpuprofile cpu.prof
//	go tool pprof -top -cum cpu.prof
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/cli"
	"repro/internal/cpu"
	"repro/internal/harness"
	"repro/internal/profile"
	"repro/internal/stats"
	"repro/internal/workloads"
)

func main() {
	var (
		name     = flag.String("workload", "vpr", "workload name (see -list)")
		multi    = flag.String("multiprog", "", "co-schedule 2-4 comma-separated workloads (e.g. vpr,mcf); overrides -workload")
		list     = flag.Bool("list", false, "list workloads and exit")
		slices   = flag.Bool("slices", false, "enable the speculative slice hardware")
		wide8    = flag.Bool("wide8", false, "use the 8-wide machine (default 4-wide)")
		warmup   = flag.Uint64("warmup", 0, "warm-up instructions (default: workload suggestion)")
		run      = flag.Uint64("run", 0, "measured instructions (default: workload suggestion)")
		disasm   = flag.Bool("disasm", false, "print the program and slice code, then exit")
		trace    = flag.Bool("trace", false, "stream telemetry events (implies -slices)")
		traceFmt = flag.String("trace-format", "text", "trace sink: text, jsonl, or chrome")
		traceOut = flag.String("trace-out", "", "trace output file (default stdout)")
		top      = flag.Int("top", 0, "print the problem-instruction summary and the N static instructions with the most PDEs")
		perfect  = flag.Bool("perfect", false, "perfect branch prediction and caches (limit study)")
		bpredFlg = flag.String("bpred", "", "direction predictor, name[:params] (e.g. yags, value, gshare:4096,10)")
		asJSON   = flag.Bool("json", false, "emit the run's full counter snapshot as JSON")
		ckDir    = flag.String("checkpoint-dir", "", "persist warm-up checkpoints in this directory (created if missing)")
		warmFlg  = flag.String("warm", "detailed", "warm-up mode: detailed|functional")
		useOrc   = flag.Bool("oracle", false, "validate the run against the functional model (differential oracle)")
		orcOut   = flag.String("oracle-report", "", "write oracle divergence reports (JSON) to this file on failure")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file (read it with go tool pprof)")
	)
	flag.Parse()
	cli.StartCPUProfile("slicesim", *cpuProf)
	defer cli.StopCPUProfile()

	warmMode, err := harness.ParseWarmMode(*warmFlg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		cli.Exit(1)
	}

	if *list {
		for _, w := range workloads.All() {
			fmt.Printf("%-8s %s\n", w.Name, w.Description)
		}
		return
	}

	if *multi != "" {
		if bad := singleProgramFlagsSet(); len(bad) > 0 {
			for _, name := range bad {
				fmt.Fprintf(os.Stderr, "slicesim: -%s does not apply to -multiprog\n", name)
			}
			cli.Exit(1)
		}
		cli.CheckPredictors(*bpredFlg)
		runMulti(*multi, *slices, *warmup, *run, *bpredFlg,
			harness.OracleOptions{Enabled: *useOrc}, *orcOut, *asJSON)
		return
	}

	w, err := workloads.ByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		cli.Exit(1)
	}

	if *disasm {
		for _, p := range w.Image.Programs() {
			fmt.Print(p.Disasm())
			fmt.Println()
		}
		return
	}

	cfg := cpu.Config4Wide()
	if *wide8 {
		cfg = cpu.Config8Wide()
	}
	if *perfect {
		cfg.Perfect = cpu.Perfect{AllBranches: true, AllLoads: true}
	}
	cfg.BPred = *bpredFlg
	cli.CheckPredictors(cfg.BPred)
	warm, region := w.SuggestedWarmup, w.SuggestedRun
	if *warmup > 0 {
		warm = *warmup
	}
	if *run > 0 {
		region = *run
	}
	useSlices := *slices || *trace

	// Warm through the checkpointer: the warm prefix runs under the warm
	// configuration, the machine quiesces, and the measurement core is
	// restored from the snapshot with zeroed counters. With -checkpoint-dir
	// the snapshot persists, so re-running with different measurement-only
	// flags (-perfect, -trace, -top) skips the warm-up simulation. The
	// measured region runs through the engine's own RunOnce, so the oracle,
	// invariant and MaxCycles checks are the ones every experiment gets.
	var tracer stats.Tracer
	if *trace {
		sink, cleanup, err := openTracer(*traceFmt, *traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			cli.Exit(1)
		}
		defer cleanup()
		tracer = sink
	}
	cp := harness.NewCheckpointer(*ckDir, warmMode)
	o := harness.OracleOptions{Enabled: *useOrc}
	core, warmSrc, err := harness.RunOnce(cp, w, cfg, useSlices, warm, region, o, nil, tracer)
	if err != nil {
		fmt.Fprintln(os.Stderr, "slicesim:", err)
		cli.WriteOracleReport("slicesim", *orcOut, err)
		cli.Exit(1)
	}
	s := core.S
	if *useOrc {
		fmt.Fprintf(os.Stderr, "slicesim: oracle: %d retirements validated, no divergence\n", s.MainRetired)
	}

	if *asJSON {
		snap := core.Snapshot()
		out := map[string]any{
			"workload": w.Name,
			"machine":  cfg.Name,
			"slices":   useSlices,
			"warmFrom": warmSrc,
			"snapshot": &snap,
		}
		cli.PrintJSON(out)
		return
	}

	fmt.Printf("workload   %s (%s, slices=%v, warm from %s)\n", w.Name, cfg.Name, useSlices, warmSrc)
	fmt.Printf("retired    %d instructions in %d cycles (IPC %.3f)\n", s.MainRetired, s.Cycles, s.IPC())
	fmt.Printf("branches   %d (%d mispredicted, %.2f%%)\n", s.Branches, s.Mispredicts, s.MispredictRate()*100)
	fmt.Printf("loads      %d (%d missed, %.2f%%)\n", s.Loads, s.LoadMisses, s.LoadMissRate()*100)
	fmt.Printf("fetched    %d main (%d wrong path), %d helper\n", s.MainFetched, s.MainWrongPath, s.HelperFetched)
	if useSlices {
		fmt.Printf("forks      %d taken, %d squashed, %d ignored\n", s.Forks, s.ForksSquashed, s.ForksIgnored)
		fmt.Printf("preds      %d overrides (%.1f%% correct), %d late, %d early resolutions\n",
			s.PredsUsed, s.OverrideAccuracyPct(), s.PredsLateUsed, s.EarlyResolutions)
		fmt.Printf("prefetch   %d slice prefetches, %d main misses covered\n", s.SlicePrefetches, s.MissesCovered)
	}
	if *top > 0 {
		// The problem-instruction characterization of §2.2 on this run: with
		// the default machine and regions it is Table 2's row for w.
		r := profile.Characterize(s, region)
		fmt.Printf("\n%s: %d problem loads (%.0f%% of mem ops, %.0f%% of misses); "+
			"%d problem branches (%.0f%% of branches, %.0f%% of mispredictions)\n",
			w.Name, r.MemSI, r.MemFrac*100, r.MissCoverage*100,
			r.BrSI, r.BrFrac*100, r.MispredCoverage*100)
		fmt.Printf("top %d PDE contributors:\n", *top)
		for _, st := range profile.TopOffenders(s, *top) {
			kind := "load  "
			rate := st.MissRate()
			if st.IsBranch {
				kind = "branch"
				rate = st.MispredictRate()
			}
			fmt.Printf("  %#08x %s execs=%-8d PDEs=%-6d rate=%.1f%%\n",
				st.PC, kind, st.Execs, st.Misses+st.Mispredicts, rate*100)
		}
	}
}

// singleProgramOnly names the flags that only the single-program path
// honours: the co-schedule machine is always 4-wide with real predictors
// and caches, cannot be checkpointed (its warm region runs inline), and
// has no trace, profile, or disassembly output.
var singleProgramOnly = map[string]bool{
	"wide8": true, "perfect": true, "trace": true, "trace-format": true, "trace-out": true,
	"top": true, "disasm": true, "checkpoint-dir": true, "warm": true,
}

// singleProgramFlagsSet returns the single-program-only flags given on the
// command line, in name order.
func singleProgramFlagsSet() []string {
	var set []string
	flag.Visit(func(f *flag.Flag) {
		if singleProgramOnly[f.Name] {
			set = append(set, f.Name)
		}
	})
	return set
}

// runMulti is the -multiprog mode: co-schedule several workloads on one
// core (multi-programmed SMT) and report per-program statistics. The warm
// region runs inline; when the oracle is on it observes the warm region
// too.
func runMulti(list string, withSlices bool, warm, run uint64, bpredSpec string, o harness.OracleOptions, orcOut string, asJSON bool) {
	var group []*workloads.Workload
	for _, n := range strings.Split(list, ",") {
		w, err := workloads.ByName(strings.TrimSpace(n))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			cli.Exit(1)
		}
		group = append(group, w)
	}
	p := harness.Params{BPred: bpredSpec}
	snap, err := harness.RunMP(group, p, withSlices, warm, run, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "slicesim:", err)
		cli.WriteOracleReport("slicesim", orcOut, err)
		cli.Exit(1)
	}
	if o.Enabled {
		fmt.Fprintln(os.Stderr, "slicesim: oracle: all programs validated, no divergence")
	}

	sched := make([]string, len(group))
	for i, w := range group {
		sched[i] = w.Name
	}
	if asJSON {
		out := map[string]any{
			"schedule": strings.Join(sched, "+"),
			"machine":  fmt.Sprintf("mp%d-4wide", len(group)),
			"slices":   withSlices,
			"snapshot": &snap,
		}
		cli.PrintJSON(out)
		return
	}

	fmt.Printf("schedule   %s (mp%d-4wide, slices=%v)\n", strings.Join(sched, "+"), len(group), withSlices)
	var throughput float64
	for i, w := range group {
		s := &snap.Progs[i]
		throughput += s.IPC()
		fmt.Printf("p%d %-8s retired %d in %d cycles (IPC %.3f); branches %d (%d misp), loads %d (%d missed)\n",
			i, w.Name, s.MainRetired, s.Cycles, s.IPC(), s.Branches, s.Mispredicts, s.Loads, s.LoadMisses)
		if withSlices {
			fmt.Printf("   slices: %d forks, %d preds used (%.1f%% correct), %d prefetches\n",
				s.Forks, s.PredsConsumed(), s.OverrideAccuracyPct(), s.SlicePrefetches)
		}
	}
	fmt.Printf("throughput %.3f IPC (sum of per-program IPCs)\n", throughput)
}

// openTracer builds the requested trace sink. cleanup flushes the sink's
// framing (the Chrome array terminator) and closes the output file.
func openTracer(format, path string) (stats.Tracer, func(), error) {
	var w io.Writer = os.Stdout
	var file *os.File
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			return nil, nil, err
		}
		w, file = f, f
	}
	closeFile := func() {
		if file != nil {
			file.Close()
		}
	}
	switch format {
	case "text":
		return stats.NewTextTracer(w), closeFile, nil
	case "jsonl":
		t := stats.NewJSONLTracer(w)
		return t, func() {
			if err := t.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "trace:", err)
			}
			closeFile()
		}, nil
	case "chrome":
		t := stats.NewChromeTracer(w)
		return t, func() {
			if err := t.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "trace:", err)
			}
			closeFile()
		}, nil
	default:
		closeFile()
		return nil, nil, fmt.Errorf("unknown -trace-format %q (want text, jsonl, or chrome)", format)
	}
}
