package harness

import (
	"strings"
	"testing"

	"repro/internal/autoslice"
)

// TestFigureAutoClosedLoop is the end-to-end closed-loop check: profile →
// cluster → build → oracle-validate → accept must produce at least one
// accepted, divergence-free auto slice across a few workloads, and every
// accepted candidate must carry a clean verdict.
func TestFigureAutoClosedLoop(t *testing.T) {
	ws := pick(t, "crafty", "eon", "vpr")
	e := NewEngine(small, 4)
	rows := e.FigureAuto(ws)
	if len(rows) != len(ws) {
		t.Fatalf("rows = %d, want %d", len(rows), len(ws))
	}

	validated := 0
	for _, r := range rows {
		if r.Program == "" {
			t.Errorf("row without program name: %+v", r)
		}
		accepted := 0
		for _, c := range r.Candidates {
			if c.Reason == "" {
				t.Errorf("%s: candidate %s was never judged", r.Program, c.Name)
			}
			if c.Accepted {
				accepted++
				if c.Reason != "ok" {
					t.Errorf("%s: accepted candidate %s has reason %q", r.Program, c.Name, c.Reason)
				}
				if c.Overrides == 0 && c.Prefetches == 0 {
					t.Errorf("%s: accepted candidate %s has no coverage", r.Program, c.Name)
				}
			}
			if c.Static > autoslice.MaxSliceLen {
				t.Errorf("%s: candidate %s static size %d exceeds bound", r.Program, c.Name, c.Static)
			}
			if c.LiveIns > autoslice.MaxLiveIns {
				t.Errorf("%s: candidate %s live-ins %d exceeds bound", r.Program, c.Name, c.LiveIns)
			}
		}
		if r.AutoSlices > 0 {
			if !r.OracleValidated {
				t.Errorf("%s: accepted configuration not oracle-validated", r.Program)
			}
			if accepted == 0 {
				t.Errorf("%s: AutoSlices=%d but no accepted candidate", r.Program, r.AutoSlices)
			}
			validated++
		} else if r.OracleValidated {
			t.Errorf("%s: OracleValidated without accepted slices", r.Program)
		}
	}
	if validated == 0 {
		t.Errorf("no workload produced an accepted, oracle-validated auto slice:\n%s", FormatFigureAuto(rows))
	}

	text := FormatFigureAuto(rows)
	for _, w := range ws {
		if !strings.Contains(text, w.Name) {
			t.Errorf("format output missing %s:\n%s", w.Name, text)
		}
	}
}

// TestFigureAutoDeterministic pins what the CI checkpoint smoke relies on:
// the rows must be identical across engines (cold vs memoized state must
// not leak into the document).
func TestFigureAutoDeterministic(t *testing.T) {
	ws := pick(t, "crafty")
	a := NewEngine(small, 4).FigureAuto(ws)
	b := NewEngine(small, 4).FigureAuto(ws)
	if len(a) != len(b) {
		t.Fatalf("row counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		ra, rb := a[i], b[i]
		// Compare via formatted output; the rows hold only value types.
		if got, want := FormatFigureAuto([]FigureAutoRow{ra}), FormatFigureAuto([]FigureAutoRow{rb}); got != want {
			t.Errorf("row %d differs between engines:\n--- a ---\n%s\n--- b ---\n%s", i, got, want)
		}
	}
}
