package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/workloads"
)

// exportGolden is the -json document of every workload at scale 0.02, the
// document `experiments -json -scale 0.02` prints, with simWallMs zeroed;
// exportFuncWarmGolden is the same document under -warm=functional.
const (
	exportGolden         = "export.golden.json"
	exportFuncWarmGolden = "export_funcwarm.golden.json"
)

// TestExportDocumentGolden locks the shape and content of the -json
// document (schema ExportSchema) for all 12 workloads, encoded exactly as
// cli.PrintJSON writes it. Simulations are pure functions of their specs,
// so at a fixed scale the document is deterministic except for wall time,
// which is zeroed before comparison. Regenerate with -update only after an
// intentional simulator change.
func TestExportDocumentGolden(t *testing.T) {
	checkExportGolden(t, WarmDetailed, exportGolden)
}

// TestExportFuncWarmGolden does the same for functional warm-up, which
// approximates detailed warm-up by contract and so has its own document.
func TestExportFuncWarmGolden(t *testing.T) {
	checkExportGolden(t, WarmFunctional, exportFuncWarmGolden)
}

func checkExportGolden(t *testing.T, mode WarmMode, golden string) {
	t.Helper()
	e := NewEngine(Params{Scale: 0.02}, 4)
	e.Ckpt = NewCheckpointer("", mode)
	doc := e.Export(workloads.All())
	doc.Engine.SimWallMS = 0

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join("testdata", golden)
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(want, buf.Bytes()) {
		moved, err := jsonCellDiff(want, buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		t.Errorf("export document diverges from %s in %d cells:\n%s", golden, len(moved), strings.Join(capLines(moved, 40), "\n"))
	}
}

// jsonCellDiff compares two JSON documents leaf by leaf and returns one
// "path: want → got" line per differing leaf, in document order (object
// keys sorted). A leaf present on one side only reads <absent> on the
// other; numbers compare by their literal text.
func jsonCellDiff(want, got []byte) ([]string, error) {
	decode := func(b []byte) (any, error) {
		d := json.NewDecoder(bytes.NewReader(b))
		d.UseNumber()
		var v any
		return v, d.Decode(&v)
	}
	w, err := decode(want)
	if err != nil {
		return nil, fmt.Errorf("golden: %v", err)
	}
	g, err := decode(got)
	if err != nil {
		return nil, fmt.Errorf("document: %v", err)
	}
	var out []string
	var walk func(path string, w, g any)
	walk = func(path string, w, g any) {
		switch wv := w.(type) {
		case map[string]any:
			if gv, ok := g.(map[string]any); ok {
				var keys []string
				for k := range wv {
					keys = append(keys, k)
				}
				for k := range gv {
					keys = append(keys, k)
				}
				slices.Sort(keys)
				for _, k := range slices.Compact(keys) {
					walk(path+"."+k, member(wv, k), member(gv, k))
				}
				return
			}
		case []any:
			if gv, ok := g.([]any); ok {
				for i := 0; i < max(len(wv), len(gv)); i++ {
					var wi, gi any = absent{}, absent{}
					if i < len(wv) {
						wi = wv[i]
					}
					if i < len(gv) {
						gi = gv[i]
					}
					walk(fmt.Sprintf("%s[%d]", path, i), wi, gi)
				}
				return
			}
		}
		if !reflect.DeepEqual(w, g) {
			out = append(out, fmt.Sprintf("%s: %s → %s", strings.TrimPrefix(path, "."), cell(w), cell(g)))
		}
	}
	walk("", w, g)
	return out, nil
}

// TestJSONCellDiff pins the golden mismatch report: one line per moved
// leaf, named by its path, with keys or slots missing on one side shown as
// <absent>.
func TestJSONCellDiff(t *testing.T) {
	want := `{"a": 1, "b": [{"x": 1.5, "y": "s"}, 2], "c": null, "d": {"e": true}}`
	got := `{"a": 1, "b": [{"x": 1.50, "y": "s"}], "c": 0, "f": 3}`
	lines, err := jsonCellDiff([]byte(want), []byte(got))
	if err != nil {
		t.Fatal(err)
	}
	wantLines := []string{
		"b[0].x: 1.5 → 1.50",
		"b[1]: 2 → <absent>",
		"c: null → 0",
		`d: {"e":true} → <absent>`,
		"f: <absent> → 3",
	}
	if !slices.Equal(lines, wantLines) {
		t.Errorf("diff lines:\n%s\nwant:\n%s", strings.Join(lines, "\n"), strings.Join(wantLines, "\n"))
	}
	if got := capLines(wantLines, 2); len(got) != 3 || got[2] != "... and 3 more" {
		t.Errorf("capLines(5 lines, 2) = %q", got)
	}
}

// absent marks an array slot or object key one side does not have.
type absent struct{}

func member(m map[string]any, k string) any {
	if v, ok := m[k]; ok {
		return v
	}
	return absent{}
}

func cell(v any) string {
	if _, ok := v.(absent); ok {
		return "<absent>"
	}
	b, _ := json.Marshal(v)
	return string(b)
}

// capLines keeps the first n lines and says how many it dropped.
func capLines(lines []string, n int) []string {
	if len(lines) <= n {
		return lines
	}
	return append(lines[:n:n], fmt.Sprintf("... and %d more", len(lines)-n))
}

// TestExportDocumentShape checks the structural invariants any consumer
// relies on, independent of golden values: the schema tag, one row (or
// column) per workload in every table, and populated engine counters.
func TestExportDocumentShape(t *testing.T) {
	ws := pick(t, "vpr", "mcf")
	e := NewEngine(small, 4)
	doc := e.Export(ws)

	if doc.Schema != ExportSchema {
		t.Errorf("schema = %q, want %q", doc.Schema, ExportSchema)
	}
	if doc.Scale != small.Scale {
		t.Errorf("scale = %v, want %v", doc.Scale, small.Scale)
	}
	if len(doc.Workloads) != 2 || doc.Workloads[0] != "vpr" || doc.Workloads[1] != "mcf" {
		t.Errorf("workloads = %v", doc.Workloads)
	}
	if doc.Table1 == "" {
		t.Error("table1 text missing")
	}
	for name, n := range map[string]int{
		"table2":     len(doc.Table2),
		"figure1":    len(doc.Figure1),
		"table3":     len(doc.Table3),
		"figure11":   len(doc.Figure11),
		"table4":     len(doc.Table4),
		"figurePred": len(doc.FigurePred),
		"figureAuto": len(doc.FigureAuto),
	} {
		if n != len(ws) {
			t.Errorf("%s has %d rows, want %d", name, n, len(ws))
		}
	}
	// figureMP is per co-schedule, not per workload: 2 workloads form one
	// pair, each side with a per-program row.
	if len(doc.FigureMP) != 1 || len(doc.FigureMP[0].Programs) != 2 {
		t.Errorf("figureMP = %+v, want one 2-program co-schedule", doc.FigureMP)
	}
	if doc.Engine.Simulations == 0 || doc.Engine.SimInsts == 0 {
		t.Errorf("engine counters not populated: %+v", doc.Engine)
	}

	// The whole document must round-trip through JSON: a consumer that
	// decodes and re-encodes it sees identical bytes.
	b, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var back Export
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Error("export document does not round-trip through JSON")
	}
}

// TestExportReaderIgnoresUnknownFields locks the schema migration path: a
// reader must skip fields it does not know (here a v6 engine counter, as
// the old documents carry) and lose nothing it does. The current golden
// with one injected unknown key must decode and re-encode to the golden.
func TestExportReaderIgnoresUnknownFields(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", exportGolden))
	if err != nil {
		t.Fatal(err)
	}
	in := bytes.Replace(want, []byte(`"engine": {`), []byte(`"engine": {"singleflightWaits": 0,`), 1)
	if bytes.Equal(in, want) {
		t.Fatal("golden has no engine block to inject into")
	}
	var doc Export
	if err := json.Unmarshal(in, &doc); err != nil {
		t.Fatalf("reader failed on a document with an unknown engine key: %v", err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, buf.Bytes()) {
		t.Errorf("document with an unknown key decoded lossily\n--- want ---\n%s\n--- got ---\n%s", want, buf.Bytes())
	}
}

// olderExport rebuilds a stored document of an earlier schema from the
// current golden. Every schema step so far has only added top-level
// sections (and v5 five engine counters, dropped again in v7), so dropping
// the later sections, adding extraEngine keys and retagging reproduces the
// older document's shape. It returns the parse by this package's reader.
func olderExport(t *testing.T, schema string, drop []string, extraEngine map[string]any) Export {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", exportGolden))
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(b, &top); err != nil {
		t.Fatal(err)
	}
	for _, k := range drop {
		if _, ok := top[k]; !ok {
			t.Fatalf("golden has no %q section to drop", k)
		}
		delete(top, k)
	}
	if len(extraEngine) > 0 {
		var eng map[string]any
		if err := json.Unmarshal(top["engine"], &eng); err != nil {
			t.Fatal(err)
		}
		for k, v := range extraEngine {
			eng[k] = v
		}
		if top["engine"], err = json.Marshal(eng); err != nil {
			t.Fatal(err)
		}
	}
	if top["schema"], err = json.Marshal(schema); err != nil {
		t.Fatal(err)
	}
	old, err := json.Marshal(top)
	if err != nil {
		t.Fatal(err)
	}
	var doc Export
	if err := json.Unmarshal(old, &doc); err != nil {
		t.Fatalf("reader failed on a %s document: %v", schema, err)
	}
	if doc.Schema != schema {
		t.Errorf("schema = %q, want the stored %q tag", doc.Schema, schema)
	}
	return doc
}

// TestExportReaderToleratesV2: v3 was purely additive, so a v2 document
// (no figurePred, figureAuto or figureMP) must parse with those absent.
func TestExportReaderToleratesV2(t *testing.T) {
	doc := olderExport(t, "specslice-experiments/2",
		[]string{"figurePred", "figureAuto", "figureMP"}, nil)
	if doc.FigurePred != nil || doc.FigureAuto != nil || doc.FigureMP != nil {
		t.Error("v2 document produced rows for sections it does not have")
	}
	if len(doc.Table2) == 0 || len(doc.Figure11) == 0 || len(doc.Table4) == 0 ||
		doc.Engine.Simulations == 0 {
		t.Error("v2 fields did not survive the reader")
	}
}

// TestExportReaderToleratesV3 does the same for the v3 → v4 step: v4 only
// added figureAuto, so a v3 document must parse with figureAuto absent.
func TestExportReaderToleratesV3(t *testing.T) {
	doc := olderExport(t, "specslice-experiments/3",
		[]string{"figureAuto", "figureMP"}, nil)
	if doc.FigureAuto != nil {
		t.Errorf("v3 document produced %d figureAuto rows, want none", len(doc.FigureAuto))
	}
	if len(doc.FigurePred) == 0 || len(doc.Table2) == 0 || len(doc.Figure11) == 0 ||
		doc.Engine.Simulations == 0 {
		t.Error("v3 fields did not survive the reader")
	}
}

// TestExportReaderToleratesV4: a v4 document has figureAuto but neither
// figureMP nor the v5 engine counters, and must parse with figureMP absent.
func TestExportReaderToleratesV4(t *testing.T) {
	doc := olderExport(t, "specslice-experiments/4", []string{"figureMP"}, nil)
	if doc.FigureMP != nil {
		t.Errorf("v4 document produced %d figureMP rows, want none", len(doc.FigureMP))
	}
	if len(doc.FigureAuto) == 0 || len(doc.FigurePred) == 0 || len(doc.Table2) == 0 ||
		doc.Engine.Simulations == 0 {
		t.Error("v4 fields did not survive the reader")
	}
}

// TestExportReaderToleratesV5: a v5 document carries the five engine
// coordination counters this reader no longer knows; they must be skipped
// and everything else kept, with figureMP (added in v6) absent.
func TestExportReaderToleratesV5(t *testing.T) {
	doc := olderExport(t, "specslice-experiments/5", []string{"figureMP"},
		map[string]any{"singleflightWaits": 3, "singleflightHits": 2,
			"leaseTakeovers": 1, "evictions": 4, "evictedBytes": 4096})
	if doc.FigureMP != nil {
		t.Errorf("v5 document produced %d figureMP rows, want none", len(doc.FigureMP))
	}
	if len(doc.FigureAuto) == 0 || len(doc.FigurePred) == 0 || len(doc.Table2) == 0 ||
		doc.Engine.Simulations == 0 {
		t.Error("v5 fields did not survive the reader")
	}
}
