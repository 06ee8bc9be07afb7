package harness

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/workloads"
)

// exportGolden is the -json document of every workload at scale 0.02, the
// document `experiments -json -scale 0.02` prints, with simWallMs zeroed.
const exportGolden = "export.golden.json"

// TestExportDocumentGolden locks the shape and content of the -json
// document (schema ExportSchema) for all 12 workloads, encoded exactly as
// cli.PrintJSON writes it. Simulations are pure functions of their specs,
// so at a fixed scale the document is deterministic except for wall time,
// which is zeroed before comparison. Regenerate with -update only after an
// intentional simulator change.
func TestExportDocumentGolden(t *testing.T) {
	e := NewEngine(Params{Scale: 0.02}, 4)
	doc := e.Export(workloads.All())
	doc.Engine.SimWallMS = 0

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join("testdata", exportGolden)
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
		t.Errorf("export document diverges from golden\n--- want ---\n%s\n--- got ---\n%s", want, buf.Bytes())
	}
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
