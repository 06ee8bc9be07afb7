package bpred

import (
	"bytes"
	"testing"

	"repro/internal/wire"
)

// fuzzRASEntries is the small stack the RAS fuzzer saves and loads.
const fuzzRASEntries = 8

// saveRAS returns r's checkpoint section.
func saveRAS(r *RAS) []byte {
	var w wire.Writer
	r.Save(&w)
	return w.Bytes()
}

// loadRAS loads b into a fresh fuzzRASEntries-entry stack, requiring
// that it consumes every byte.
func loadRAS(b []byte) (*RAS, error) {
	r := NewRAS(fuzzRASEntries)
	rd := wire.NewReader(b)
	if err := r.Load(rd); err != nil {
		return nil, err
	}
	return r, rd.Done()
}

// FuzzRASLoad: no input makes Load — or the pushes and pops of the stack
// it restores — panic, and every input Load accepts (with nothing left
// over) is canonical: Save writes it back byte for byte. Seeded with small
// stacks' encodings (empty, wrapped past capacity, underflowed), whole,
// truncated and bit-flipped.
func FuzzRASLoad(f *testing.F) {
	empty := NewRAS(fuzzRASEntries)
	wrapped := NewRAS(fuzzRASEntries)
	for i := uint64(1); i <= fuzzRASEntries+3; i++ {
		wrapped.Push(i << 4)
	}
	under := NewRAS(fuzzRASEntries)
	under.Push(0x40)
	under.Pop()
	under.Pop()
	for _, r := range []*RAS{empty, wrapped, under} {
		enc := saveRAS(r)
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
		for _, off := range []int{0, 8, len(enc) - 8, len(enc) - 1} {
			bad := append([]byte(nil), enc...)
			bad[off] ^= 0x80
			f.Add(bad)
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := loadRAS(b)
		if err != nil {
			return
		}
		if !bytes.Equal(saveRAS(r), b) {
			t.Fatal("an accepted encoding does not re-save to itself")
		}
		m := r.Mark()
		r.Push(0x1000)
		r.Pop()
		r.Pop()
		r.Restore(m)
		r.Pop()
	})
}

// fuzzSpecs are the small geometries FuzzPredictorLoad saves and loads:
// every registered direction predictor plus the cascaded indirect one.
// perfect's parameters are branch PCs, so its fallback keeps the default
// YAGS geometry.
var fuzzSpecs = map[string]string{
	"yags":     "yags:64,16,6,8",
	"bimodal":  "bimodal:64",
	"gshare":   "gshare:64,6",
	"value":    "value:16,32,64",
	"corrmine": "corrmine:16,4,3",
	"perfect":  "perfect",
	"cascaded": "cascaded:16,32,8,6",
}

// fuzzPredictors returns a builder per registered predictor, in registry
// order, each building it at its fuzzSpecs geometry. It fails tb if a
// predictor has no spec there.
func fuzzPredictors(tb testing.TB) []func() Predictor {
	var out []func() Predictor
	for _, name := range append(DirNames(), IndirectNames()...) {
		spec, ok := fuzzSpecs[name]
		if !ok {
			tb.Fatalf("predictor %q has no FuzzPredictorLoad spec", name)
		}
		build := func() Predictor {
			if p, err := NewDir(spec); err == nil {
				return p
			}
			p, err := NewIndirect(spec)
			if err != nil {
				panic(err)
			}
			return p
		}
		build()
		out = append(out, build)
	}
	return out
}

// reseal replaces b's CRC trailer with a fresh one, so a mutated body
// reaches LoadState's checks beyond the CRC.
func reseal(b []byte) []byte {
	var w wire.Writer
	w.Raw(b[:max(len(b)-4, 0)])
	return w.Seal()
}

// checkCounters fails t if p holds a 2-bit counter above 3 or an
// undefined branch condition: states no SaveState writes.
func checkCounters(t *testing.T, p Predictor) {
	var ctrs []ctr
	switch p := p.(type) {
	case *Bimodal:
		ctrs = p.table
	case *GShare:
		ctrs = p.table
	case *YAGS:
		ctrs = yagsCtrs(p)
	case *PerfectDir:
		ctrs = yagsCtrs(p.fb)
	case *ValuePred:
		ctrs = append(ctrs, p.fb.table...)
		for _, e := range p.entries {
			ctrs = append(ctrs, e.strideConf, e.conf)
			if e.cond > CondGE {
				t.Fatalf("value entry holds undefined condition %d", e.cond)
			}
		}
		for _, e := range p.ctx {
			ctrs = append(ctrs, e.conf)
		}
	}
	for _, c := range ctrs {
		if c > 3 {
			t.Fatalf("%s holds 2-bit counter %d", p.Spec(), c)
		}
	}
}

func yagsCtrs(y *YAGS) []ctr {
	ctrs := append([]ctr(nil), y.choice...)
	for _, e := range append(append([]yagsEntry(nil), y.t...), y.nt...) {
		ctrs = append(ctrs, e.c)
	}
	return ctrs
}

// FuzzPredictorLoad: no blob makes a predictor's LoadState — or the
// predictions and updates that follow — panic, and every blob LoadState
// accepts re-saves to the same bytes and holds only states SaveState
// writes. Each input goes in as is and with its body resealed, so
// mutations get past the CRC. Seeded from each predictor's save after
// training, whole, with a body byte flipped and truncated.
func FuzzPredictorLoad(f *testing.F) {
	preds := fuzzPredictors(f)
	for i, build := range preds {
		p := build()
		switch p := p.(type) {
		case DirPredictor:
			trainDir(p, 500, int64(i))
		case IndirectPredictor:
			trainIndirect(p, 500, int64(i))
		}
		enc := p.SaveState()
		f.Add(uint8(i), enc)
		bad := append([]byte(nil), enc...)
		bad[len(bad)/2] ^= 0x84
		f.Add(uint8(i), bad)
		f.Add(uint8(i), enc[:len(enc)/2])
	}
	f.Fuzz(func(t *testing.T, which uint8, b []byte) {
		build := preds[int(which)%len(preds)]
		for _, in := range [][]byte{b, reseal(b)} {
			p := build()
			if p.LoadState(in) != nil {
				continue
			}
			if !bytes.Equal(p.SaveState(), in) {
				t.Fatalf("%s: an accepted blob does not re-save to itself", p.Spec())
			}
			checkCounters(t, p)
			switch p := p.(type) {
			case DirPredictor:
				trainDir(p, 50, 1)
			case IndirectPredictor:
				trainIndirect(p, 50, 1)
			}
		}
	})
}

// TestLoadStateRejectsUnwrittenStates: a resealed blob holding a 2-bit
// counter above 3 or an undefined branch condition fails LoadState.
func TestLoadStateRejectsUnwrittenStates(t *testing.T) {
	for _, tc := range []struct {
		spec string
		off  int // byte after the u64 entry count: a counter, or value's first cond
		v    byte
	}{
		{"bimodal:64", 8, 4},
		{"value:16,32,64", 16, byte(CondGE) + 1},
	} {
		p, err := NewDir(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		b := p.SaveState()
		b[tc.off] = tc.v
		if err := p.LoadState(reseal(b)); err == nil {
			t.Errorf("%s: LoadState accepted byte %d at offset %d", tc.spec, tc.v, tc.off)
		}
	}
}
