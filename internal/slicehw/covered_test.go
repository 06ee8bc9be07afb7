package slicehw_test

import (
	"slices"
	"testing"

	"repro/internal/autoslice"
	"repro/internal/slicehw"
	"repro/internal/workloads"
)

// freshCoveredBranchPCs recomputes a slice's distinct problem branches in
// PGI order with a set, independently of slicehw's cached list.
func freshCoveredBranchPCs(s *slicehw.Slice) []uint64 {
	var out []uint64
	seen := map[uint64]bool{}
	for _, p := range s.PGIs {
		if !seen[p.BranchPC] {
			seen[p.BranchPC] = true
			out = append(out, p.BranchPC)
		}
	}
	return out
}

// checkCoveredCache requires every slice of table to report the fresh
// recomputation, from a list NewTable built once and hands out unchanged.
func checkCoveredCache(t *testing.T, name string, table *slicehw.Table) {
	t.Helper()
	for _, s := range table.Slices() {
		got, want := s.CoveredBranchPCs(), freshCoveredBranchPCs(s)
		if !slices.Equal(got, want) {
			t.Errorf("%s slice %q: cached covered branches %#x, fresh %#x", name, s.Name, got, want)
		}
		if again := s.CoveredBranchPCs(); len(got) > 0 && &again[0] != &got[0] {
			t.Errorf("%s slice %q: covered branches rebuilt on every call", name, s.Name)
		}
	}
}

// TestCoveredBranchPCsCached checks NewTable's cached covered-branch lists
// against a fresh recomputation for every workload's hand-built table.
func TestCoveredBranchPCsCached(t *testing.T) {
	for _, w := range workloads.All() {
		checkCoveredCache(t, w.Name, w.SliceTable())
	}
}

// TestCoveredBranchPCsCachedAutoslice does the same for a table built
// around an automatically constructed slice.
func TestCoveredBranchPCsCachedAutoslice(t *testing.T) {
	w, err := workloads.ByName("crafty")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := autoslice.CollectTrace(w.Image, w.NewMemory(), w.Entry, 60_000)
	if err != nil {
		t.Fatal(err)
	}
	hand := w.Slices[0]
	built, err := autoslice.Build(tr, hand.ForkPC, []uint64{hand.PGIs[0].BranchPC}, autoslice.SliceBase)
	if err != nil {
		t.Fatal(err)
	}
	if len(built.Slice.PGIs) == 0 {
		t.Fatal("auto slice has no PGIs; the check would be vacuous")
	}
	table, err := slicehw.NewTable([]*slicehw.Slice{built.Slice})
	if err != nil {
		t.Fatal(err)
	}
	checkCoveredCache(t, "autoslice", table)
}
