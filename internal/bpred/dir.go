package bpred

import (
	"fmt"

	"repro/internal/stats"
	"repro/internal/wire"
)

// Bimodal is a PC-indexed table of 2-bit counters.
type Bimodal struct {
	table []ctr
	mask  uint64

	// Stats counts lookups and mispredicted updates.
	Stats stats.DirStats
}

// NewBimodal builds a bimodal predictor with entries counters (power of
// two).
func NewBimodal(entries int) *Bimodal {
	t := make([]ctr, entries)
	for i := range t {
		t[i] = 2 // weakly taken
	}
	return &Bimodal{table: t, mask: uint64(entries - 1), Stats: stats.DirStats{Kind: "bimodal"}}
}

func (b *Bimodal) idx(pc uint64) uint64 { return (pc >> 2) & b.mask }

// Predict implements DirPredictor.
func (b *Bimodal) Predict(pc, _ uint64) bool {
	b.Stats.Lookups++
	return b.table[b.idx(pc)].taken()
}

// Update implements DirPredictor.
func (b *Bimodal) Update(pc, _ uint64, taken bool) {
	i := b.idx(pc)
	if b.table[i].taken() != taken {
		b.Stats.UpdateMisses++
	}
	b.table[i] = train(b.table[i], taken)
}

// Spec implements Predictor.
func (b *Bimodal) Spec() string { return fmt.Sprintf("bimodal:%d", len(b.table)) }

// Counters implements Predictor.
func (b *Bimodal) Counters() any { return &b.Stats }

// SaveState implements Predictor.
func (b *Bimodal) SaveState() []byte {
	var w wire.Writer
	w.U64(uint64(len(b.table)))
	for _, c := range b.table {
		w.U8(uint8(c))
	}
	return w.Seal()
}

// LoadState implements Predictor.
func (b *Bimodal) LoadState(blob []byte) error {
	r, err := openBlob("bimodal", blob)
	if err != nil {
		return err
	}
	r.Expect(uint64(len(b.table)), "entries")
	for i := range b.table {
		b.table[i] = readCtr(r)
	}
	return closeBlob("bimodal", r)
}

// GShare xors global history into the index.
type GShare struct {
	table    []ctr
	mask     uint64
	histBits uint

	// Stats counts lookups and mispredicted updates.
	Stats stats.DirStats
}

// NewGShare builds a gshare predictor with entries counters and histBits of
// global history.
func NewGShare(entries int, histBits uint) *GShare {
	t := make([]ctr, entries)
	for i := range t {
		t[i] = 2
	}
	return &GShare{table: t, mask: uint64(entries - 1), histBits: histBits,
		Stats: stats.DirStats{Kind: "gshare"}}
}

func (g *GShare) idx(pc, hist uint64) uint64 {
	h := hist & (1<<g.histBits - 1)
	return ((pc >> 2) ^ h) & g.mask
}

// Predict implements DirPredictor.
func (g *GShare) Predict(pc, hist uint64) bool {
	g.Stats.Lookups++
	return g.table[g.idx(pc, hist)].taken()
}

// Update implements DirPredictor.
func (g *GShare) Update(pc, hist uint64, taken bool) {
	i := g.idx(pc, hist)
	if g.table[i].taken() != taken {
		g.Stats.UpdateMisses++
	}
	g.table[i] = train(g.table[i], taken)
}

// Spec implements Predictor.
func (g *GShare) Spec() string { return fmt.Sprintf("gshare:%d,%d", len(g.table), g.histBits) }

// Counters implements Predictor.
func (g *GShare) Counters() any { return &g.Stats }

// SaveState implements Predictor.
func (g *GShare) SaveState() []byte {
	var w wire.Writer
	w.U64(uint64(len(g.table)))
	w.U64(uint64(g.histBits))
	for _, c := range g.table {
		w.U8(uint8(c))
	}
	return w.Seal()
}

// LoadState implements Predictor.
func (g *GShare) LoadState(blob []byte) error {
	r, err := openBlob("gshare", blob)
	if err != nil {
		return err
	}
	r.Expect(uint64(len(g.table)), "entries")
	r.Expect(uint64(g.histBits), "history bits")
	for i := range g.table {
		g.table[i] = readCtr(r)
	}
	return closeBlob("gshare", r)
}
