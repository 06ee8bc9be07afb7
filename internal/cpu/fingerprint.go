package cpu

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/bpred"
)

// Fingerprint returns a stable, order-independent serialization of every
// field that can change simulation results. Two Configs with equal
// fingerprints produce identical runs on the same workload and region, so
// the experiment engine uses it as part of its memoization key. The
// Perfect PC sets are emitted sorted — map iteration order must not leak
// into the key.
func (c Config) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s fw=%d iw=%d cw=%d win=%d ls=%d fq=%d tc=%d hwc=%d pqd=%d",
		c.Name, c.FetchWidth, c.IssueWidth, c.CommitWidth, c.WindowSize,
		c.LdStPorts, c.FetchQueueCap, c.ThreadContexts, c.HelperWindowCap, c.PredQueueDepth)
	fmt.Fprintf(&b, " predsOff=%t confGate=%t maxCyc=%d",
		c.SlicePredictionsOff, c.ConfidenceGatedForks, c.MaxCycles)
	// Predictor specs are normalized so "" and the explicit default name
	// fingerprint identically; %q guards against separator characters in
	// param lists (e.g. a perfect predictor's PC list).
	fmt.Fprintf(&b, " bpred=%q ipred=%q",
		normalizeSpec(c.BPred, bpred.DefaultDirSpec),
		normalizeSpec(c.IndirectPred, bpred.DefaultIndirectSpec))
	// cache.Params is a flat struct of scalars; %+v is deterministic.
	fmt.Fprintf(&b, " mem={%+v}", c.Mem)
	fmt.Fprintf(&b, " perfect={allBr=%t allLd=%t br=%s ld=%s}",
		c.Perfect.AllBranches, c.Perfect.AllLoads,
		sortedPCs(c.Perfect.BranchPCs), sortedPCs(c.Perfect.LoadPCs))
	return b.String()
}

// normalizeSpec maps the empty spec onto the default predictor name so a
// config that spells the default out ("yags") and one that leaves it
// empty share a fingerprint. Distinct param spellings of one geometry
// ("yags" vs "yags:8192,2048,6,12") fingerprint apart — conservative for
// memoization, never wrong.
func normalizeSpec(spec, def string) string {
	if spec == "" {
		return def
	}
	return spec
}

func sortedPCs(set map[uint64]bool) string {
	if len(set) == 0 {
		return "-"
	}
	pcs := make([]uint64, 0, len(set))
	for pc, on := range set {
		if on {
			pcs = append(pcs, pc)
		}
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	var b strings.Builder
	for i, pc := range pcs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%x", pc)
	}
	return b.String()
}
