package bpred

import (
	"fmt"

	"repro/internal/stats"
	"repro/internal/wire"
)

// YAGS (Eden & Mudge, MICRO-31) splits a choice bimodal table from two
// small tagged "direction caches". The choice table records each branch's
// bias; the T-cache holds instances where a not-taken-biased branch went
// taken, and the NT-cache the converse. Only exceptions to the bias occupy
// cache space, which is why YAGS beats gshare at equal budget.
type YAGS struct {
	choice   []ctr
	t        []yagsEntry // consulted when choice says not-taken
	nt       []yagsEntry // consulted when choice says taken
	cmask    uint64
	emask    uint64
	tagBits  uint
	histBits uint

	// Stats counts which structure supplied each prediction and how the
	// tagged caches behave under aliasing.
	Stats stats.YAGSStats
}

type yagsEntry struct {
	tag   uint16
	c     ctr
	valid bool
}

// NewYAGS builds a YAGS predictor with choiceEntries bimodal counters and
// cacheEntries entries in each direction cache. The paper's 64 Kbit budget
// corresponds to NewYAGS(8192, 2048, 6, 12): 16 Kb choice + 2×2K×(2+6) = 48 Kb.
func NewYAGS(choiceEntries, cacheEntries int, tagBits, histBits uint) *YAGS {
	y := &YAGS{
		choice:   make([]ctr, choiceEntries),
		t:        make([]yagsEntry, cacheEntries),
		nt:       make([]yagsEntry, cacheEntries),
		cmask:    uint64(choiceEntries - 1),
		emask:    uint64(cacheEntries - 1),
		tagBits:  tagBits,
		histBits: histBits,
	}
	for i := range y.choice {
		y.choice[i] = 2
	}
	y.Stats.Kind = "yags"
	return y
}

// DefaultYAGS returns the Table 1 configuration (64 Kb budget).
func DefaultYAGS() *YAGS {
	g := yagsGeometry
	return NewYAGS(g[0], g[1], uint(g[2]), uint(g[3]))
}

func (y *YAGS) choiceIdx(pc uint64) uint64 { return (pc >> 2) & y.cmask }

func (y *YAGS) cacheIdx(pc, hist uint64) uint64 {
	h := hist & (1<<y.histBits - 1)
	return ((pc >> 2) ^ h) & y.emask
}

func (y *YAGS) tag(pc uint64) uint16 {
	return uint16((pc >> 2) & (1<<y.tagBits - 1))
}

// Predict implements DirPredictor.
func (y *YAGS) Predict(pc, hist uint64) bool {
	y.Stats.Lookups++
	bias := y.choice[y.choiceIdx(pc)].taken()
	i := y.cacheIdx(pc, hist)
	tag := y.tag(pc)
	cache := y.nt
	if !bias {
		cache = y.t
	}
	if e := &cache[i]; e.valid {
		if e.tag == tag {
			y.Stats.CacheHits++
			return e.c.taken()
		}
		y.Stats.CacheAliased++
	}
	y.Stats.ChoiceUsed++
	return bias
}

// Update implements DirPredictor.
func (y *YAGS) Update(pc, hist uint64, taken bool) {
	ci := y.choiceIdx(pc)
	bias := y.choice[ci].taken()
	i := y.cacheIdx(pc, hist)
	tag := y.tag(pc)

	cache := y.nt
	if !bias {
		cache = y.t
	}
	e := &cache[i]
	hit := e.valid && e.tag == tag

	if hit {
		e.c = train(e.c, taken)
	} else if taken != bias {
		// Allocate: this instance is an exception to the bias.
		y.Stats.Allocs++
		if e.valid {
			y.Stats.AllocEvictions++
		}
		*e = yagsEntry{tag: tag, valid: true}
		e.c = train(2, taken) // weakly toward the observed outcome
	}

	// The choice table trains except when the cache supplied a correct
	// prediction that disagrees with the bias (keeping the bias stable).
	if !(hit && e.c.taken() == taken && taken != bias) {
		y.choice[ci] = train(y.choice[ci], taken)
	}
}

// Spec implements Predictor.
func (y *YAGS) Spec() string {
	return fmt.Sprintf("yags:%d,%d,%d,%d", len(y.choice), len(y.t), y.tagBits, y.histBits)
}

// Counters implements Predictor.
func (y *YAGS) Counters() any { return &y.Stats }

// SaveState implements Predictor.
func (y *YAGS) SaveState() []byte {
	var w wire.Writer
	w.U64(uint64(len(y.choice)))
	for _, c := range y.choice {
		w.U8(uint8(c))
	}
	saveYAGSEntries := func(entries []yagsEntry) {
		w.U64(uint64(len(entries)))
		for _, e := range entries {
			w.U16(e.tag)
			w.U8(uint8(e.c))
			w.Bool(e.valid)
		}
	}
	saveYAGSEntries(y.t)
	saveYAGSEntries(y.nt)
	return w.Seal()
}

// LoadState implements Predictor.
func (y *YAGS) LoadState(blob []byte) error {
	r, err := openBlob("yags", blob)
	if err != nil {
		return err
	}
	r.Expect(uint64(len(y.choice)), "choice entries")
	for i := range y.choice {
		y.choice[i] = readCtr(r)
	}
	for _, entries := range [][]yagsEntry{y.t, y.nt} {
		r.Expect(uint64(len(entries)), "cache entries")
		for i := range entries {
			entries[i] = yagsEntry{tag: r.U16(), c: readCtr(r), valid: r.Bool()}
		}
	}
	return closeBlob("yags", r)
}
