package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"
	"text/tabwriter"

	"repro/internal/asm"
	"repro/internal/autoslice"
	"repro/internal/cpu"
	"repro/internal/oracle"
	"repro/internal/slicehw"
	"repro/internal/workloads"
)

// This file closes the loop on automatic slice construction: profile →
// cluster → fork-select → build+optimize (internal/autoslice) →
// oracle-validate → accept/reject on measured accuracy and net cycles —
// and reports the result next to the hand-built slices as the "figureauto"
// experiment. Every candidate measurement is an ordinary RunSpec through
// the memoized engine carrying its candidate SliceSet, and the engine runs
// every set spec under the differential oracle, so a candidate is only
// ever accepted from a divergence-free simulation.

// Bounds of the automatic pipeline, mirroring the hand-construction
// bounds (§3.2). The slice length and live-in bounds are autoslice's own.
const (
	// autoTraceLen is the functional profiling-trace length the slices
	// are constructed from. Fixed (not scaled with Params.Scale) so
	// candidate construction is deterministic across measurement scales.
	autoTraceLen = 80_000
	// autoMinLead/autoMaxLead bound the fork-point search distance
	// (§3.2's sweet spot), in dynamic instructions.
	autoMinLead, autoMaxLead = 25, 120
	// autoClusterGap joins problem PCs whose dynamic instances fall
	// within this many trace instructions of each other into one slice
	// group.
	autoClusterGap = 50
	// maxAutoClusters caps how many clusters get candidates (simulation
	// budget); maxForkTries caps how many buildable candidates per
	// cluster are measured.
	maxAutoClusters, maxForkTries = 4, 3
	// maxAutoSlices caps the accepted slices combined into the final set.
	maxAutoSlices = 3
	// minAccuracyPct is the override-accuracy acceptance floor for
	// prediction-generating candidates.
	minAccuracyPct = 85
	// autoSliceStride spaces the per-candidate slice programs from
	// autoslice.SliceBase, clear of the main program, globals, and the
	// hand slices.
	autoSliceStride = 0x1000
)

// AutoCandidate reports one constructed candidate's static shape and its
// validated measurement.
type AutoCandidate struct {
	Name      string `json:"name"`
	ForkPC    uint64 `json:"forkPC"`
	Static    int    `json:"static"`
	Loop      int    `json:"loop"`
	LiveIns   int    `json:"liveIns"`
	PGIs      int    `json:"pgis"`
	PrefLoads int    `json:"prefLoads"`

	Accepted bool `json:"accepted"`
	// Reason is "ok" for accepted candidates, else why it was rejected
	// ("oracle divergence", "no coverage", "accuracy below floor",
	// "slower than baseline", or an error).
	Reason      string  `json:"reason"`
	AccuracyPct float64 `json:"accuracyPct"`
	Overrides   uint64  `json:"overrides"`
	Prefetches  uint64  `json:"prefetches"`
	IPC         float64 `json:"ipc"`
	SpeedupPct  float64 `json:"speedupPct"`

	cycles uint64
}

// FigureAutoRow is one workload's auto-vs-hand comparison (4-wide).
type FigureAutoRow struct {
	Program string `json:"program"`
	// Note records why the pipeline stopped early (no problem PCs, trace
	// failure); empty when candidates were constructed.
	Note       string          `json:"note,omitempty"`
	ProblemPCs int             `json:"problemPCs"`
	SkippedPCs int             `json:"skippedPCs"`
	Clusters   int             `json:"clusters"`
	Candidates []AutoCandidate `json:"candidates"`

	BaseIPC float64 `json:"baseIPC"`

	// The accepted configuration (the combined winner set, or the best
	// single winner when combining loses or only one survives). All zeros
	// when nothing was accepted.
	AutoSlices      int     `json:"autoSlices"`
	AutoStatic      int     `json:"autoStatic"`
	AutoLiveIns     int     `json:"autoLiveIns"`
	AutoAccuracyPct float64 `json:"autoAccuracyPct"`
	AutoOverrides   uint64  `json:"autoOverrides"`
	AutoPrefetches  uint64  `json:"autoPrefetches"`
	AutoIPC         float64 `json:"autoIPC"`
	AutoSpeedupPct  float64 `json:"autoSpeedupPct"`
	// OracleValidated is true iff the reported auto configuration ran
	// divergence-free under the differential oracle (acceptance requires
	// it, so this is true exactly when AutoSlices > 0).
	OracleValidated bool `json:"oracleValidated"`

	// The hand-built slices, measured on the same engine (shared with
	// Figure 11 / Table 4).
	HandSlices      int     `json:"handSlices"`
	HandStatic      int     `json:"handStatic"`
	HandLiveIns     int     `json:"handLiveIns"`
	HandAccuracyPct float64 `json:"handAccuracyPct"`
	HandIPC         float64 `json:"handIPC"`
	HandSpeedupPct  float64 `json:"handSpeedupPct"`
}

// AutoBuild pairs a workload's row with the constructed candidates'
// code, index-aligned with Row.Candidates (for printing/disassembly).
type AutoBuild struct {
	Row    FigureAutoRow
	Builts []*autoslice.Built
}

// FigureAuto runs the closed loop and returns the auto-vs-hand rows.
func (e *Engine) FigureAuto(ws []*workloads.Workload) []FigureAutoRow {
	builds := e.FigureAutoDetail(ws)
	rows := make([]FigureAutoRow, len(builds))
	for i := range builds {
		rows[i] = builds[i].Row
	}
	return rows
}

// cloneSlice deep-copies slice metadata. Every slicehw.Table must own its
// Slice values: NewTable assigns Index, and two tables sharing one struct
// would race on it.
func cloneSlice(s *slicehw.Slice) *slicehw.Slice {
	c := *s
	c.PGIs = append([]slicehw.PGI(nil), s.PGIs...)
	c.LiveIns = append(s.LiveIns[:0:0], s.LiveIns...)
	c.CoveredLoadPCs = append([]uint64(nil), s.CoveredLoadPCs...)
	return &c
}

// autoPrep is one workload's constructed candidates, before measurement.
// The per-candidate slices (cluster, builtOf, specs, res) stay
// index-aligned with row.Candidates as repair variants are appended.
type autoPrep struct {
	row     FigureAutoRow
	builts  []*autoslice.Built
	cluster []int        // cluster index per candidate
	builtOf []int        // builts index per candidate (variants share)
	specs   []RunSpec    // per-candidate spec (variants differ in Cfg)
	res     []*RunResult // per-candidate validated result (nil on error)
}

// prepareAuto runs the construction half of the pipeline for one workload:
// profile → trace → cluster → fork-select → build, registering one slice
// set per surviving candidate. No simulation happens here beyond the
// memoized profiling baseline.
func (e *Engine) prepareAuto(w *workloads.Workload) autoPrep {
	prep := autoPrep{row: FigureAutoRow{Program: w.Name}}
	row := &prep.row

	prob, err := e.profileFor(w, cpu.Config4Wide())
	if err != nil {
		panic(err)
	}
	pcs := prob.ProblemPCs()
	row.ProblemPCs = len(pcs)
	if len(pcs) == 0 {
		row.Note = "no problem instructions"
		return prep
	}

	tr, err := autoslice.CollectTrace(w.Image, w.NewMemory(), w.Entry, autoTraceLen)
	if err != nil {
		row.Note = "trace: " + err.Error()
		return prep
	}

	groups, skipped := autoslice.ClusterProblemPCs(tr, pcs, autoClusterGap)
	row.SkippedPCs = len(skipped)
	row.Clusters = len(groups)
	if len(groups) == 0 {
		row.Note = "no problem instances in the trace"
		return prep
	}
	if len(groups) > maxAutoClusters {
		groups = groups[:maxAutoClusters]
	}

	mainProg := w.Image.Programs()[0]
	for ci, g := range groups {
		forks := autoslice.SelectForkPoint(tr, g, autoMinLead, autoMaxLead)
		kept := 0
		var keptLeads []float64
		for _, fc := range forks {
			if kept >= maxForkTries {
				break
			}
			// Adjacent PCs in the ranking are the same fork position ±1
			// instruction; measuring them is triple-counting one
			// candidate. Spend the try budget on distinct leads instead.
			close := false
			for _, l := range keptLeads {
				if d := fc.MeanLead - l; d > -5 && d < 5 {
					close = true
					break
				}
			}
			if close {
				continue
			}
			base := autoslice.SliceBase + uint64(len(prep.builts))*autoSliceStride
			built, err := autoslice.Build(tr, fc.PC, g, base)
			if err != nil {
				continue
			}
			built.Slice.Name = fmt.Sprintf("%s.auto%d", w.Name, len(prep.builts))
			image, err := asm.NewImage(mainProg, built.Program)
			if err != nil {
				continue // overlapping layout: unusable candidate
			}
			table, err := slicehw.NewTable([]*slicehw.Slice{cloneSlice(built.Slice)})
			if err != nil {
				continue
			}
			spec := e.baseSpec(w, cpu.Config4Wide())
			spec.Set = &SliceSet{
				Name:     "auto:" + w.Name + ":" + built.Fingerprint(),
				Workload: w.Name,
				Image:    image,
				Table:    table,
			}
			sl := built.Slice
			row.Candidates = append(row.Candidates, AutoCandidate{
				Name:      sl.Name,
				ForkPC:    sl.ForkPC,
				Static:    sl.StaticSize,
				Loop:      sl.LoopSize,
				LiveIns:   len(sl.LiveIns),
				PGIs:      len(sl.PGIs),
				PrefLoads: len(sl.CoveredLoadPCs),
			})
			prep.builts = append(prep.builts, built)
			prep.cluster = append(prep.cluster, ci)
			prep.builtOf = append(prep.builtOf, len(prep.builts)-1)
			prep.specs = append(prep.specs, spec)
			keptLeads = append(keptLeads, fc.MeanLead)
			kept++
		}
	}
	if len(prep.specs) == 0 && row.Note == "" {
		row.Note = "no buildable candidates"
	}
	return prep
}

// judgeCandidate fills a candidate's measured columns and decides
// acceptance. Only oracle-clean (err == nil), covering, accurate,
// net-positive candidates survive.
func judgeCandidate(c *AutoCandidate, base *RunResult, res *RunResult, err error) {
	if err != nil {
		var de *oracle.DivergenceError
		if errors.As(err, &de) {
			c.Reason = "oracle divergence"
		} else {
			c.Reason = "error: " + err.Error()
		}
		return
	}
	s := res.Stats()
	bs := base.Stats()
	c.Overrides = s.PredsConsumed()
	c.Prefetches = s.SlicePrefetches
	c.IPC = s.IPC()
	c.SpeedupPct = speedupPct(bs.Cycles, s.Cycles)
	c.cycles = s.Cycles
	c.AccuracyPct = s.OverrideAccuracyPct()
	switch {
	case c.Overrides == 0 && c.Prefetches == 0:
		c.Reason = "no coverage"
	case c.PGIs > 0 && s.PredsCorrect+s.PredsIncorrect > 0 && c.AccuracyPct < minAccuracyPct:
		c.Reason = "accuracy below floor"
	case s.Cycles >= bs.Cycles:
		c.Reason = "slower than baseline"
	default:
		c.Accepted = true
		c.Reason = "ok"
	}
}

// FigureAutoDetail runs the closed loop and returns the rows plus the
// constructed slice programs. Phases: (1) baseline and hand-slice runs
// for every workload in one parallel batch (shared with Figure 11 /
// Table 4); (2) candidate construction per workload; (3) one
// parallel, oracle-validated batch over every candidate everywhere; (4)
// acceptance, with one repair round for near-misses — candidates below
// the accuracy floor re-measure with predictions suppressed (prefetch
// only), candidates slower than baseline re-measure with
// confidence-gated forks; (5) an oracle-validated run of each workload's
// combined winner set, falling back to the best single winner if
// combining loses.
func (e *Engine) FigureAutoDetail(ws []*workloads.Workload) []AutoBuild {
	// Phase 1: baselines and hand-slice legs.
	baseSpecs := make([]RunSpec, 0, 2*len(ws))
	for _, w := range ws {
		baseSpecs = append(baseSpecs, e.baseSpec(w, cpu.Config4Wide()), e.sliceSpec(w, cpu.Config4Wide()))
	}
	baseRes := e.mustRunAll(baseSpecs)

	// Phase 2: construction (serial; purely functional and fast).
	preps := make([]autoPrep, len(ws))
	for i, w := range ws {
		preps[i] = e.prepareAuto(w)
	}

	// Phase 3: every candidate across every workload, one validated batch.
	var candSpecs []RunSpec
	for i := range preps {
		candSpecs = append(candSpecs, preps[i].specs...)
	}
	candRes, candErrs := e.runAllEach(candSpecs)

	// Phase 4a: judge, and build the repair batch. A candidate whose
	// predictions are wrong may still carry its weight as a prefetcher
	// (its address computation is exact even when the trace-derived
	// branch pattern is not); one whose forks cost more than they earn
	// may win once forks are gated on low confidence.
	type repairRef struct {
		wi, orig int
		kind     string
	}
	var repairSpecs []RunSpec
	var repairs []repairRef
	off := 0
	for i := range preps {
		prep := &preps[i]
		base := baseRes[2*i]
		for k := range prep.row.Candidates {
			judgeCandidate(&prep.row.Candidates[k], base, candRes[off+k], candErrs[off+k])
			prep.res = append(prep.res, candRes[off+k])
			c := &prep.row.Candidates[k]
			if c.Accepted {
				continue
			}
			spec := prep.specs[k]
			var kind string
			switch c.Reason {
			case "accuracy below floor":
				spec.Cfg.SlicePredictionsOff = true
				kind = "nopred"
			case "slower than baseline":
				spec.Cfg.ConfidenceGatedForks = true
				kind = "gated"
			default:
				continue
			}
			repairSpecs = append(repairSpecs, spec)
			repairs = append(repairs, repairRef{wi: i, orig: k, kind: kind})
		}
		off += len(prep.row.Candidates)
	}

	// Phase 4b: measure and judge the repair variants.
	repairRes, repairErrs := e.runAllEach(repairSpecs)
	for j, ref := range repairs {
		prep := &preps[ref.wi]
		c := prep.row.Candidates[ref.orig] // copy the static shape
		c.Name += "+" + ref.kind
		c.Accepted, c.Reason = false, ""
		c.AccuracyPct, c.Overrides, c.Prefetches, c.IPC, c.SpeedupPct, c.cycles = 0, 0, 0, 0, 0, 0
		if ref.kind == "nopred" {
			c.PGIs = 0 // PGI allocation suppressed: a pure prefetch slice
		}
		judgeCandidate(&c, baseRes[2*ref.wi], repairRes[j], repairErrs[j])
		prep.row.Candidates = append(prep.row.Candidates, c)
		prep.cluster = append(prep.cluster, prep.cluster[ref.orig])
		prep.builtOf = append(prep.builtOf, prep.builtOf[ref.orig])
		prep.specs = append(prep.specs, repairSpecs[j])
		prep.res = append(prep.res, repairRes[j])
	}

	// Phase 5 per workload: winners, combos, final choice.
	builds := make([]AutoBuild, len(ws))
	var comboSpecs []RunSpec
	comboOf := make([]int, 0, len(ws))    // workload index per combo spec
	comboSlices := make([][]int, len(ws)) // winner candidate indices per workload
	singleBest := make([]int, len(ws))    // best single winner index (-1 if none)
	for i, w := range ws {
		prep := &preps[i]
		row := &prep.row
		base := baseRes[2*i]
		hand := baseRes[2*i+1]
		row.BaseIPC = base.Stats().IPC()
		fillHand(row, w, base, hand)

		// Winners: the best accepted candidate of each cluster (two
		// candidates from one cluster cover the same problem instances,
		// so combining them would double-fork the same work).
		bestOf := map[int]int{}
		for k := range row.Candidates {
			if !row.Candidates[k].Accepted {
				continue
			}
			ci := prep.cluster[k]
			if cur, ok := bestOf[ci]; !ok || row.Candidates[k].cycles < row.Candidates[cur].cycles {
				bestOf[ci] = k
			}
		}
		var winners []int
		for _, k := range bestOf {
			winners = append(winners, k)
		}
		sort.Slice(winners, func(a, b int) bool {
			ca, cb := row.Candidates[winners[a]], row.Candidates[winners[b]]
			if ca.cycles != cb.cycles {
				return ca.cycles < cb.cycles
			}
			return winners[a] < winners[b]
		})
		if len(winners) > maxAutoSlices {
			winners = winners[:maxAutoSlices]
		}
		singleBest[i] = -1
		if len(winners) > 0 {
			singleBest[i] = winners[0]
		}
		comboSlices[i] = winners
		// Combining is only meaningful when every winner runs under the
		// same core configuration (repair variants change the config
		// globally, not per slice).
		if len(winners) >= 2 && sameCfg(prep, winners) {
			if spec, ok := comboSpec(w, prep, winners); ok {
				comboSpecs = append(comboSpecs, spec)
				comboOf = append(comboOf, i)
			}
		}
		builds[i] = AutoBuild{Builts: prep.builts}
	}
	comboRes, comboErrs := e.runAllEach(comboSpecs)

	comboAt := make(map[int]int) // workload index → combo result index
	for k, i := range comboOf {
		comboAt[i] = k
	}
	for i := range ws {
		prep := &preps[i]
		row := &prep.row
		base := baseRes[2*i]
		winners := comboSlices[i]
		best := singleBest[i]
		if best >= 0 {
			chosenRes := prep.res[best]
			chosen := []int{best}
			if k, ok := comboAt[i]; ok && comboErrs[k] == nil &&
				comboRes[k].Stats().Cycles < chosenRes.Stats().Cycles {
				chosenRes = comboRes[k]
				chosen = winners
			}
			fillAuto(row, prep, chosen, base, chosenRes)
		}
		builds[i].Row = *row
	}
	return builds
}

// sameCfg reports whether all the given candidates run under the same
// core configuration.
func sameCfg(prep *autoPrep, ks []int) bool {
	fp := prep.specs[ks[0]].Cfg.Fingerprint()
	for _, k := range ks[1:] {
		if prep.specs[k].Cfg.Fingerprint() != fp {
			return false
		}
	}
	return true
}

// comboSpec builds the combined winner set for one workload. Returns its
// spec and whether the set could be built.
func comboSpec(w *workloads.Workload, prep *autoPrep, winners []int) (RunSpec, bool) {
	progs := []*asm.Program{w.Image.Programs()[0]}
	slices := make([]*slicehw.Slice, 0, len(winners))
	h := sha256.New()
	for _, k := range winners {
		b := prep.builts[prep.builtOf[k]]
		progs = append(progs, b.Program)
		slices = append(slices, cloneSlice(b.Slice))
		fmt.Fprintln(h, b.Fingerprint())
	}
	image, err := asm.NewImage(progs...)
	if err != nil {
		return RunSpec{}, false
	}
	table, err := slicehw.NewTable(slices)
	if err != nil {
		return RunSpec{}, false
	}
	// The winners share one config (sameCfg); the combo inherits it.
	spec := prep.specs[winners[0]]
	spec.Set = &SliceSet{
		Name:     "auto:" + w.Name + ":combo:" + hex.EncodeToString(h.Sum(nil))[:12],
		Workload: w.Name,
		Image:    image,
		Table:    table,
	}
	return spec, true
}

// fillHand fills the hand-built columns from the shared base/slice runs.
func fillHand(row *FigureAutoRow, w *workloads.Workload, base, hand *RunResult) {
	row.HandSlices = len(w.Slices)
	for _, sl := range w.Slices {
		row.HandStatic += sl.StaticSize
		row.HandLiveIns += len(sl.LiveIns)
	}
	hs := hand.Stats()
	row.HandIPC = hs.IPC()
	row.HandSpeedupPct = speedupPct(base.Stats().Cycles, hs.Cycles)
	row.HandAccuracyPct = hs.OverrideAccuracyPct()
}

// fillAuto fills the accepted-configuration columns from the chosen
// (oracle-validated) run.
func fillAuto(row *FigureAutoRow, prep *autoPrep, chosen []int, base, res *RunResult) {
	row.AutoSlices = len(chosen)
	for _, k := range chosen {
		sl := prep.builts[prep.builtOf[k]].Slice
		row.AutoStatic += sl.StaticSize
		row.AutoLiveIns += len(sl.LiveIns)
	}
	s := res.Stats()
	row.AutoIPC = s.IPC()
	row.AutoSpeedupPct = speedupPct(base.Stats().Cycles, s.Cycles)
	row.AutoOverrides = s.PredsConsumed()
	row.AutoPrefetches = s.SlicePrefetches
	row.AutoAccuracyPct = s.OverrideAccuracyPct()
	row.OracleValidated = true
}

// FormatFigureAuto renders the auto-vs-hand comparison.
func FormatFigureAuto(rows []FigureAutoRow) string {
	var sb strings.Builder
	sb.WriteString("Figure A. Automatically constructed vs hand-built slices (4-wide).\n")
	sb.WriteString(table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "program\tcand\tacc\t| auto\tstatic\tlive\tacc%\tIPC\tspd%\toracle\t| hand\tstatic\tlive\tacc%\tIPC\tspd%")
		for _, r := range rows {
			accepted := 0
			for _, c := range r.Candidates {
				if c.Accepted {
					accepted++
				}
			}
			validated := "-"
			if r.OracleValidated {
				validated = "clean"
			}
			fmt.Fprintf(w, "%s\t%d\t%d\t| %d\t%d\t%d\t%s\t%s\t%s\t%s\t| %d\t%d\t%d\t%s\t%s\t%s\n",
				r.Program, len(r.Candidates), accepted,
				r.AutoSlices, r.AutoStatic, r.AutoLiveIns,
				fnum("%.1f", r.AutoAccuracyPct), fnum("%.2f", r.AutoIPC), fnum("%.1f", r.AutoSpeedupPct),
				validated,
				r.HandSlices, r.HandStatic, r.HandLiveIns,
				fnum("%.1f", r.HandAccuracyPct), fnum("%.2f", r.HandIPC), fnum("%.1f", r.HandSpeedupPct))
		}
		fmt.Fprintln(w, "(auto columns report the accepted, oracle-validated configuration; speedups vs the no-slice baseline)")
	}))
	for _, r := range rows {
		for _, c := range r.Candidates {
			if !c.Accepted {
				fmt.Fprintf(&sb, "  %s: candidate %s @ %#x rejected: %s (acc %s%%, %d overrides, %d prefetches, spd %s%%)\n",
					r.Program, c.Name, c.ForkPC, c.Reason,
					fnum("%.1f", c.AccuracyPct), c.Overrides, c.Prefetches, fnum("%.1f", c.SpeedupPct))
			}
		}
		if r.Note != "" {
			fmt.Fprintf(&sb, "  %s: %s\n", r.Program, r.Note)
		}
	}
	return sb.String()
}
