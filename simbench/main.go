// Command simbench is the repository's benchmark. It times the simulator
// on one of three fixed workloads, checks every simulated result, and prints
// one JSON object as the last line of its standard output:
//
//	simbench --workload <tables|dense|validated> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the object holds the end-to-end metrics (host time per
// pass and per simulation, simulation throughput, set-up time, peak memory,
// and the simulated slice speedup). With --trace 1 it holds the per-layer
// metrics, taken from spans the benchmark records around its own calls into
// the simulator; NOTES.md defines each one. The seed picks the measured
// regions, so a new seed measures different regions of the same programs.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/stats"
)

// setupRepeats is how many times set-up runs; setup_s is their median.
const setupRepeats = 3

// workload is one benchmark workload. setup starts from nothing each time
// it is called and ends with an untimed priming pass, so lazy
// initialisation lands in setup_s rather than in the first measured pass.
type workload interface {
	setup(b *bench) error
	// pass runs the workload's fixed work once and returns its
	// simulations, which are checked after the pass's timer stops.
	pass(b *bench, p *passCtx) ([]result, error)
	// traced adds the workload's per-layer measurements taken outside the
	// passes (checkpoint codec, oracle overhead, functional engine).
	traced(b *bench) error
	// speedup is the simulated mean slice speedup in percent.
	speedup(b *bench) float64
}

// passCtx is one pass's tracing context: rec is nil on untraced passes.
type passCtx struct {
	rec *recorder
	id  int // the pass span
}

// result is one simulation waiting to be checked once its pass's timer has
// stopped.
type result struct {
	key  string
	snap stats.Snapshot
	want uint64 // instructions each program had to retire
	err  error
}

// bench is the state one invocation shares across passes.
type bench struct {
	rng *rand.Rand
	tmp string // scratch directory inside the checkout

	attempted, failed int
	refs              map[string]*stats.Snapshot
	digests           map[string]string

	measuring bool      // set once set-up is done
	simSecs   []float64 // host seconds per measured simulation
	simInsts  uint64    // simulated instructions in measured passes
	passSecs  []float64

	lay layers
}

func (b *bench) fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "simbench: check failed: "+format+"\n", args...)
}

// sim notes one measured simulation's host time and simulated work.
func (b *bench) sim(d time.Duration, insts uint64) {
	if b.measuring {
		b.simSecs = append(b.simSecs, d.Seconds())
		b.simInsts += insts
	}
}

// check validates simulations as operations: each must retire its
// requested instructions on every program without hitting the cycle guard,
// and a spec simulated before must reproduce the same Snapshot.
func (b *bench) check(rs []result) {
	for _, r := range rs {
		b.attempted++
		ok := true
		if r.err != nil {
			b.fail("%s: %v", r.key, r.err)
			b.failed++
			continue
		}
		for i, s := range programs(&r.snap) {
			if s.CycleGuardHits != 0 || s.MainRetired < r.want {
				b.fail("%s: program %d retired %d of %d instructions, %d cycle-guard hits",
					r.key, i, s.MainRetired, r.want, s.CycleGuardHits)
				ok = false
			}
		}
		d := snapDigest(&r.snap)
		if prev, seen := b.digests[r.key]; !seen {
			b.digests[r.key] = d
			snap := r.snap
			b.refs[r.key] = &snap
		} else if prev != d {
			b.fail("%s: snapshot differs from an earlier run of the same spec", r.key)
			ok = false
		}
		if !ok {
			b.failed++
		}
	}
}

// programs returns a run's per-program counters: Progs on a co-schedule,
// else the one program's Sim.
func programs(s *stats.Snapshot) []stats.Sim {
	if len(s.Progs) > 0 {
		return s.Progs
	}
	return []stats.Sim{s.Sim}
}

// checkText counts one comparison of printed output as an operation.
func (b *bench) checkText(what, got, want string) {
	b.attempted++
	if got != want {
		b.failed++
		b.fail("%s: output differs from the reference", what)
	}
}

func snapDigest(s *stats.Snapshot) string {
	j, err := json.Marshal(s)
	if err != nil {
		panic(err) // a Snapshot holds only counters; it always encodes
	}
	sum := sha256.Sum256(j)
	return hex.EncodeToString(sum[:])
}

// simDigest hashes every distinct simulated Snapshot, so two commits can be
// compared for identical simulated output.
func (b *bench) simDigest() string {
	keys := make([]string, 0, len(b.digests))
	for k := range b.digests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%s\n", k, b.digests[k])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// uniform returns a seed-derived value in [lo, hi).
func (b *bench) uniform(lo, hi float64) float64 { return lo + (hi-lo)*b.rng.Float64() }

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newWorkload(name string, b *bench) (workload, error) {
	switch name {
	case "tables":
		return newTables(b), nil
	case "dense":
		return newRegions(b, []string{"crafty", "eon", "vortex"}, [][]string{{"eon", "mcf"}}, 100_000), nil
	case "validated":
		return newValidated(b), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want tables, dense or validated)", name)
}

func main() {
	var (
		name    = flag.String("workload", "", "tables, dense or validated")
		seed    = flag.Int64("seed", 1, "picks the measured regions")
		seconds = flag.Float64("seconds", 15, "how long to measure")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced bool) error {
	tmpRoot := filepath.Join(".bench_build", "simbench-tmp")
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(tmpRoot, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	b := &bench{
		rng:     rand.New(rand.NewSource(seed)),
		tmp:     tmp,
		refs:    make(map[string]*stats.Snapshot),
		digests: make(map[string]string),
	}
	wl, err := newWorkload(name, b)
	if err != nil {
		return err
	}

	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		if err := wl.setup(b); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	// Measure, for at least minPasses passes. A traced run alternates
	// traced and untraced passes, so its own passes give the tracing
	// overhead.
	const minPasses = 4
	b.measuring = true
	rec := newRecorder()
	var plain, withSpans, cpuSecs []float64
	start := time.Now()
	for i := 0; i < minPasses || time.Since(start).Seconds() < seconds; i++ {
		p := &passCtx{}
		traceThis := traced && i%2 == 0
		if traceThis {
			p.rec = rec
			p.id = rec.open("pass", 0)
			b.lay.passes++
		}
		t0, c0 := time.Now(), cpuSeconds()
		rs, err := wl.pass(b, p)
		if err != nil {
			return fmt.Errorf("pass %d: %w", i, err)
		}
		d := time.Since(t0).Seconds()
		cpuSecs = append(cpuSecs, cpuSeconds()-c0)
		p.rec.close(p.id)
		b.check(rs)
		if traceThis {
			withSpans = append(withSpans, d)
		} else {
			plain = append(plain, d)
		}
		b.passSecs = append(b.passSecs, d)
	}
	b.measuring = false

	fmt.Printf("workload %s seed %d: %d passes, %d simulations timed, %d checks, %d failed\n",
		name, seed, len(b.passSecs), len(b.simSecs), b.attempted, b.failed)
	fmt.Printf("pass_s min %.4f quartiles %.4f %.4f %.4f; process CPU seconds per pass %.4f\n",
		quantile(b.passSecs, 0), quantile(b.passSecs, 0.25), median(b.passSecs), quantile(b.passSecs, 0.75), median(cpuSecs))
	fmt.Printf("set-up seconds %v\n", setups)
	fmt.Printf("sim_digest %s %s\n", name, b.simDigest())
	printSliceCounts(b)

	metrics := map[string]metric{}
	if traced {
		if err := wl.traced(b); err != nil {
			return fmt.Errorf("traced measurements: %w", err)
		}
		b.lay.self = rec.selfSeconds()
		b.lay.tracePassS = median(withSpans)
		b.lay.plainPassS = median(plain)
		b.lay.spans = len(rec.spans)
		b.lay.specSamples = len(b.simSecs)
		metrics = b.lay.metrics(b)
		path := filepath.Join(".bench_build", "simbench-trace", fmt.Sprintf("%s-seed%d.json", name, seed))
		if err := rec.write(path); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("spans written to %s\n", path)
	} else {
		// Every pass simulates the same instructions, so throughput is one
		// pass's instructions over the median pass time.
		perPass := ratio(float64(b.simInsts), float64(len(b.passSecs)))
		metrics["setup_s"] = metric{median(setups), "s"}
		metrics["pass_s"] = metric{median(b.passSecs), "s"}
		metrics["sim_minsts_per_s"] = metric{ratio(perPass, median(b.passSecs)) / 1e6, "Minst/s"}
		metrics["spec_s_p50"] = metric{quantile(b.simSecs, 0.5), "s"}
		metrics["spec_s_p90"] = metric{quantile(b.simSecs, 0.9), "s"}
		metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
		metrics["slice_speedup_pct"] = metric{wl.speedup(b), "%"}
		fmt.Printf("spec_s over %d simulations\n", len(b.simSecs))
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{b.failed == 0, b.attempted, b.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// sliceSpeedup is the mean, over programs measured both ways, of the
// cycle-count speedup of the slice run over the base run — Figure 11's
// SliceSpeedup. Keys pair up as "<prog>|base|…" and "<prog>|slices|…".
func sliceSpeedup(b *bench) float64 {
	var sum float64
	n := 0
	for k, base := range b.refs {
		if !strings.Contains(k, "|base|") {
			continue
		}
		sl, ok := b.refs[strings.Replace(k, "|base|", "|slices|", 1)]
		if !ok {
			continue
		}
		bc, sc := progCycles(base), progCycles(sl)
		if bc == 0 || sc == 0 {
			continue
		}
		sum += (bc/sc - 1) * 100
		n++
	}
	return ratio(sum, float64(n))
}

// progCycles is a run's cycles per retired instruction summed over its
// programs, which for one program orders runs exactly like cycles do.
func progCycles(s *stats.Snapshot) float64 {
	if len(s.Progs) == 0 {
		return float64(s.Sim.Cycles)
	}
	var cpi float64
	for _, p := range s.Progs {
		cpi += ratio(float64(p.Cycles), float64(p.MainRetired))
	}
	return cpi
}

// label shortens a spec key for printing: engine keys end in a long config
// fingerprint, which a short hash stands in for.
func label(key string) string {
	head, rest, long := strings.Cut(key, " ")
	if !long {
		return key
	}
	sum := sha256.Sum256([]byte(rest))
	return head + " cfg=" + hex.EncodeToString(sum[:4])
}

// printSliceCounts prints each program's slice-hardware counts unclipped,
// so accounting anomalies (more predictions used than generated) show.
func printSliceCounts(b *bench) {
	keys := make([]string, 0, len(b.refs))
	for k := range b.refs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for i, s := range programs(b.refs[k]) {
			if s.Forks == 0 {
				continue
			}
			fmt.Printf("slicehw %s #%d: forks %d ignored %d, preds generated %d used %d late %d\n",
				label(k), i, s.Forks, s.ForksIgnored, s.PredsGenerated, s.PredsUsed+s.PredsLateUsed, s.PredsLateUsed)
		}
	}
}
