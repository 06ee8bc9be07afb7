package bpred

import (
	"fmt"

	"repro/internal/stats"
	"repro/internal/wire"
)

// ValuePred is the value-prediction baseline for the problem-branch
// frontier (Mitrevski & Gušev's potential study, PAPERS.md): instead of
// pattern-matching branch history, it predicts the *value* the branch
// will test — last-value, stride, and a second-level context table — and
// evaluates the branch's condition against the predicted value. Branches
// whose source follows a computable sequence (loop trip counts, pointer
// strides) become predictable even when their direction history looks
// random to YAGS; truly data-dependent values stay hard, which is the
// paper's premise.
//
// Training happens through the ValueObserver hook at retirement (correct
// path only): the core hands over the architectural value of the
// branch's source register. Predict runs at fetch and mutates only
// stats, so wrong-path lookups are harmless. A bimodal outcome table
// backs up branches whose values are not confidently predictable.
type ValuePred struct {
	entries []valEntry
	mask    uint64
	ctx     []ctxEntry // value-context second level, signature-indexed
	cmask   uint64
	fb      *Bimodal // outcome fallback when the value path lacks confidence

	// Stats splits predictions between the value path and the fallback.
	Stats stats.ValuePredStats
}

type valEntry struct {
	pc         uint64 // full-PC tag; 0 = empty
	cond       Cond
	last       uint64
	stride     uint64 // last - previous
	strideConf ctr
	conf       ctr    // confidence that the value path predicts the outcome
	sig        uint64 // hash of recent observed values (context index)
}

type ctxEntry struct {
	tag   uint16
	val   uint64
	conf  ctr
	valid bool
}

// NewValuePred builds a value predictor with entries per-branch slots,
// ctxEntries context slots, and fbEntries fallback counters (all powers
// of two).
func NewValuePred(entries, ctxEntries, fbEntries int) *ValuePred {
	return &ValuePred{
		entries: make([]valEntry, entries),
		mask:    uint64(entries - 1),
		ctx:     make([]ctxEntry, ctxEntries),
		cmask:   uint64(ctxEntries - 1),
		fb:      NewBimodal(fbEntries),
		Stats:   stats.ValuePredStats{Kind: "value"},
	}
}

func (v *ValuePred) idx(pc uint64) uint64 { return (pc >> 2) & v.mask }
func (v *ValuePred) cidx(sig uint64) uint64 {
	return (sig ^ sig>>16) & v.cmask
}
func ctxTag(sig uint64) uint16 { return uint16(sig >> 48) }

// predictValue returns the predicted next source value for a tracked
// branch: a confident context match wins, then a confident stride, then
// the last value.
func (v *ValuePred) predictValue(e *valEntry) uint64 {
	if ce := &v.ctx[v.cidx(e.sig)]; ce.valid && ce.tag == ctxTag(e.sig) && ce.conf.taken() {
		return ce.val
	}
	if e.strideConf.taken() {
		return e.last + e.stride
	}
	return e.last
}

// Predict implements DirPredictor. It consults the value path only under
// confidence; everything else falls back to the bimodal outcome table.
func (v *ValuePred) Predict(pc, hist uint64) bool {
	v.Stats.Lookups++
	e := &v.entries[v.idx(pc)]
	if e.pc != pc || e.cond == CondNone || !e.conf.taken() {
		v.Stats.FallbackUsed++
		return v.fb.Predict(pc, hist)
	}
	v.Stats.ValueUsed++
	return e.cond.Eval(v.predictValue(e))
}

// Update implements DirPredictor: the resolved direction trains only the
// fallback table — the value path trains in ObserveValue, which the core
// calls immediately before Update.
func (v *ValuePred) Update(pc, hist uint64, taken bool) {
	v.fb.Update(pc, hist, taken)
}

// ObserveValue implements ValueObserver with the architectural value the
// retiring branch tested.
func (v *ValuePred) ObserveValue(pc uint64, cond Cond, value uint64) {
	if cond == CondNone {
		return
	}
	e := &v.entries[v.idx(pc)]
	if e.pc != pc {
		v.Stats.Allocs++
		*e = valEntry{pc: pc, cond: cond, last: value}
		return
	}
	e.cond = cond

	// Score the value path against this outcome before absorbing the new
	// value: would it have predicted the branch correctly?
	if e.cond.Eval(v.predictValue(e)) == cond.Eval(value) {
		e.conf = e.conf.inc()
	} else {
		e.conf = e.conf.dec()
	}

	// Train the context slot the previous signature pointed at: "after
	// this value history, this value followed".
	ce := &v.ctx[v.cidx(e.sig)]
	switch {
	case ce.valid && ce.tag == ctxTag(e.sig):
		if ce.val == value {
			ce.conf = ce.conf.inc()
		} else {
			ce.conf = ce.conf.dec()
			if ce.conf == 0 {
				ce.val = value
			}
		}
	default:
		*ce = ctxEntry{tag: ctxTag(e.sig), val: value, conf: 1, valid: true}
	}

	// Stride detection with hysteresis.
	s := value - e.last
	if s == e.stride {
		e.strideConf = e.strideConf.inc()
	} else {
		e.strideConf = e.strideConf.dec()
		if e.strideConf == 0 {
			e.stride = s
		}
	}
	e.last = value
	// Fold the observed value into the per-branch signature (FCM-style
	// value history; the multiplier is a 64-bit odd mixing constant).
	e.sig = e.sig*0x9E3779B97F4A7C15 + value + 1
}

// Spec implements Predictor.
func (v *ValuePred) Spec() string {
	return fmt.Sprintf("value:%d,%d,%d", len(v.entries), len(v.ctx), len(v.fb.table))
}

// Counters implements Predictor.
func (v *ValuePred) Counters() any { return &v.Stats }

// SaveState implements Predictor.
func (v *ValuePred) SaveState() []byte {
	var w wire.Writer
	w.U64(uint64(len(v.entries)))
	for _, e := range v.entries {
		w.U64(e.pc)
		w.U8(uint8(e.cond))
		w.U64(e.last)
		w.U64(e.stride)
		w.U8(uint8(e.strideConf))
		w.U8(uint8(e.conf))
		w.U64(e.sig)
	}
	w.U64(uint64(len(v.ctx)))
	for _, ce := range v.ctx {
		w.U16(ce.tag)
		w.U64(ce.val)
		w.U8(uint8(ce.conf))
		w.Bool(ce.valid)
	}
	w.U64(uint64(len(v.fb.table)))
	for _, c := range v.fb.table {
		w.U8(uint8(c))
	}
	return w.Seal()
}

// LoadState implements Predictor.
func (v *ValuePred) LoadState(blob []byte) error {
	r, err := openBlob("value", blob)
	if err != nil {
		return err
	}
	r.Expect(uint64(len(v.entries)), "entries")
	for i := range v.entries {
		v.entries[i] = valEntry{
			pc:         r.U64(),
			cond:       readCond(r),
			last:       r.U64(),
			stride:     r.U64(),
			strideConf: readCtr(r),
			conf:       readCtr(r),
			sig:        r.U64(),
		}
	}
	r.Expect(uint64(len(v.ctx)), "context entries")
	for i := range v.ctx {
		v.ctx[i] = ctxEntry{tag: r.U16(), val: r.U64(), conf: readCtr(r), valid: r.Bool()}
	}
	r.Expect(uint64(len(v.fb.table)), "fallback entries")
	for i := range v.fb.table {
		v.fb.table[i] = readCtr(r)
	}
	return closeBlob("value", r)
}
