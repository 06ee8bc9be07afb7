package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/bpred"
	"repro/internal/cpu"
	"repro/internal/stats"
	"repro/internal/wire"
	"repro/internal/workloads"
)

// digestTable is the committed digest of every cell TestRunDigests runs:
// one "cell sha256" line each, sorted by cell name.
const digestTable = "digests.txt"

// TestRunDigests makes "no output moved" a check over the matrix the
// export goldens do not cover: each cell is a measured run's whole
// stats.Snapshot, or one file of the checkpoint store those runs fill,
// named and hashed. The cells are RunOnce of every workload with and
// without slices (4-wide, 20k warm-up, 30k measured), vpr with slices
// under every direction predictor, two RunMP co-schedules with slices
// (5k warm-up, 20k measured), and every store file by name with the
// SHA-256 of its payload (the bytes after the container header, so a
// changed warm key renames a row without changing its hash).
// Regenerate with -update only after an intentional simulator change; on
// a mismatch the test names every moved, missing or new cell.
func TestRunDigests(t *testing.T) {
	dir := t.TempDir()
	cp := NewCheckpointer(dir, WarmDetailed)
	got := map[string]string{}
	snapshot := func(cell string, snap stats.Snapshot) {
		b, err := json.Marshal(snap)
		if err != nil {
			t.Fatalf("%s: %v", cell, err)
		}
		got[cell] = sha256Hex(b)
	}
	once := func(cell string, w *workloads.Workload, cfg cpu.Config, withSlices bool) {
		core, _, err := RunOnce(cp, w, cfg, withSlices, 20_000, 30_000, OracleOptions{}, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", cell, err)
		}
		snapshot(cell, core.Snapshot())
	}

	for _, w := range workloads.All() {
		once("run/"+w.Name+"/base", w, cpu.Config4Wide(), false)
		once("run/"+w.Name+"/slices", w, cpu.Config4Wide(), true)
	}
	vpr := pick(t, "vpr")[0]
	for _, name := range bpred.DirNames() {
		cfg := cpu.Config4Wide()
		cfg.BPred = name
		once("bpred/vpr/"+name, vpr, cfg, true)
	}
	for _, names := range [][]string{{"vpr", "mcf"}, {"gcc", "gzip"}} {
		group := pick(t, names...)
		snap, err := RunMP(group, Params{}, true, 5_000, 20_000, OracleOptions{})
		if err != nil {
			t.Fatalf("%s: %v", scheduleName(group), err)
		}
		snapshot("mp/"+scheduleName(group), snap)
	}

	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		payload, err := storedPayload(b)
		if err != nil {
			t.Fatalf("store file %s: %v", f.Name(), err)
		}
		got["store/"+f.Name()] = sha256Hex(payload)
	}

	cells := make([]string, 0, len(got))
	for c := range got {
		cells = append(cells, c)
	}
	slices.Sort(cells)
	var doc strings.Builder
	for _, c := range cells {
		fmt.Fprintf(&doc, "%s %s\n", c, got[c])
	}

	path := filepath.Join("testdata", digestTable)
	if *update {
		if err := os.WriteFile(path, []byte(doc.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing digest table (run with -update): %v", err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		c, sum, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", digestTable, line)
		}
		want[c] = sum
	}
	if moved := digestDiff(want, got); len(moved) > 0 {
		t.Errorf("%d cells moved, missing or new against the %d of %s:\n%s", len(moved), len(want), digestTable, strings.Join(moved, "\n"))
	}
}

// digestDiff returns one "cell: want → got" line per cell whose digest
// differs, sorted by cell; a cell on one side only reads <absent> on the
// other.
func digestDiff(want, got map[string]string) []string {
	var cells []string
	for c := range want {
		cells = append(cells, c)
	}
	for c := range got {
		cells = append(cells, c)
	}
	slices.Sort(cells)
	var out []string
	for _, c := range slices.Compact(cells) {
		w, wok := want[c]
		g, gok := got[c]
		if wok && gok && w == g {
			continue
		}
		if !wok {
			w = "<absent>"
		}
		if !gok {
			g = "<absent>"
		}
		out = append(out, fmt.Sprintf("%s: %s → %s", c, w, g))
	}
	return out
}

// storedPayload returns a store file's checkpoint payload, checked
// against the key and CRC its own header carries.
func storedPayload(b []byte) ([]byte, error) {
	r := wire.NewReader(b)
	r.Raw(len(ckptMagic))
	r.U32()
	key := r.Raw(int(r.U32()))
	if r.Err() != nil {
		return nil, fmt.Errorf("truncated header")
	}
	return parseCkptFile(b, string(key))
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
