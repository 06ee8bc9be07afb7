// Command autoslice runs the automatic slice construction pipeline of
// §3.3 as a closed loop: profile a workload's problem instructions on the
// baseline machine, cluster them into per-fork-point groups, build and
// optimize candidate slices, measure each candidate under the
// differential oracle, and accept or reject it on measured override
// accuracy and net speedup. The result is the same auto-vs-hand
// comparison the experiments driver exports as figureauto.
//
//	autoslice -workload crafty            closed loop on one workload
//	autoslice -workload all               every workload
//	autoslice -workload eon -print        also disassemble the candidates
//
// The closed loop always validates every candidate run against the
// functional model; -oracle additionally validates the baseline and
// hand-slice reference legs. The table reports the accepted
// configuration's accuracy and speedup, each rejected candidate gets a
// line with its fork PC, accuracy, and speedup, and -print lists every
// candidate's fork PC, size, live-ins, and PGI count with its code.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/harness"
	"repro/internal/workloads"
)

func main() {
	var (
		name   = flag.String("workload", "crafty", "workload to slice, or \"all\"")
		print  = flag.Bool("print", false, "print the generated slice code")
		scale  = flag.Float64("scale", 1.0, "region scale factor")
		jobs   = flag.Int("jobs", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		useOrc = flag.Bool("oracle", true, "also oracle-validate the baseline/hand reference legs")
	)
	flag.Parse()

	var ws []*workloads.Workload
	if *name == "all" {
		ws = workloads.All()
	} else {
		w, err := workloads.ByName(*name)
		if err != nil {
			fail(err)
		}
		ws = []*workloads.Workload{w}
	}

	closedLoop(ws, *scale, *jobs, *useOrc, *print)
}

// closedLoop runs the full pipeline through the shared experiment engine
// and prints the auto-vs-hand comparison plus per-candidate verdicts.
func closedLoop(ws []*workloads.Workload, scale float64, jobs int, useOrc, print bool) {
	e := harness.NewEngine(harness.Params{Scale: scale}, jobs)
	e.Oracle = harness.OracleOptions{Enabled: useOrc}
	builds := e.FigureAutoDetail(ws)

	rows := make([]harness.FigureAutoRow, len(builds))
	for i := range builds {
		rows[i] = builds[i].Row
	}
	fmt.Print(harness.FormatFigureAuto(rows))

	if print {
		for _, b := range builds {
			for _, bu := range b.Builts {
				fmt.Printf("\n%s (fork %#x, %d instructions, live-ins %v, %d PGIs):\n",
					bu.Slice.Name, bu.Slice.ForkPC, bu.Slice.StaticSize, bu.Slice.LiveIns, len(bu.Slice.PGIs))
				fmt.Print(bu.Program.Disasm())
			}
		}
	}

	validated := 0
	for i := range rows {
		if rows[i].AutoSlices > 0 && rows[i].OracleValidated {
			validated++
		}
	}
	fmt.Printf("\n%d/%d workloads accepted an oracle-validated auto slice\n", validated, len(rows))
	if validated == 0 {
		os.Exit(2)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
