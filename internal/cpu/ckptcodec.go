package cpu

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/slicehw"
)

// Deterministic binary codec for Checkpoint. The byte stream is a function
// of the machine state alone: every map is emitted in sorted key order and
// every slice in its semantic order, so encoding the same checkpoint twice
// yields identical bytes (the on-disk store CRCs them). The harness owns
// the file container (magic, schema version, key, CRC); this codec owns
// only the payload.

// EncodeBinary serializes the checkpoint.
func (ck *Checkpoint) EncodeBinary() []byte {
	var w wbuf
	w.u64(ck.Now)
	w.u64(ck.Seq)
	w.bool(ck.MainHalted)
	w.u64(ck.WarmRetired)
	w.u64(ck.PC)
	for _, r := range ck.Regs {
		w.u64(r)
	}
	w.u64(ck.Hist)
	w.u64(ck.Path)
	w.u64(ck.ICStallUntil)

	w.u64(uint64(len(ck.ThreadRAS)))
	for _, rs := range ck.ThreadRAS {
		w.u64(uint64(len(rs.Stack)))
		for _, v := range rs.Stack {
			w.u64(v)
		}
		w.u64(uint64(rs.SP))
	}

	encodePredSection(&w, ck.Dir)
	encodePredSection(&w, ck.Indirect)

	w.bool(ck.Conf != nil)
	if ck.Conf != nil {
		w.u64(uint64(len(ck.Conf)))
		w.b = append(w.b, ck.Conf...)
	}

	encodeCacheState(&w, ck.L1D)
	encodeCacheState(&w, ck.L1I)
	encodeCacheState(&w, ck.L2)
	encodeCacheState(&w, ck.PVB)

	w.u64(uint64(len(ck.Pref.Streams)))
	for _, s := range ck.Pref.Streams {
		w.bool(s.Valid)
		w.u64(s.NextLine)
		w.u64(uint64(s.Dir))
		w.u64(s.LastUse)
	}
	w.u64(ck.Pref.Clock)

	keys := make([]uint64, 0, len(ck.Hier.Origin))
	for k := range ck.Hier.Origin {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	w.u64(uint64(len(keys)))
	for _, k := range keys {
		w.u64(k)
		w.b = append(w.b, uint8(ck.Hier.Origin[k]))
	}
	w.u64(ck.Hier.MemFree)

	w.bool(ck.Corr != nil)
	if ck.Corr != nil {
		w.u64(ck.Corr.NextID)
		w.u64(uint64(len(ck.Corr.Preds)))
		for _, p := range ck.Corr.Preds {
			w.u64(p.BranchPC)
			w.bool(p.Filled)
			w.bool(p.Dir)
			w.bool(p.Used)
			w.bool(p.UsedDir)
			w.bool(p.Killed)
			w.u64(uint64(p.Inst))
		}
		w.u64(uint64(len(ck.Corr.Insts)))
		for _, in := range ck.Corr.Insts {
			w.u64(in.ID)
			w.u64(uint64(in.Slice))
			w.u64(uint64(in.SkipLoopKill))
			w.u64(uint64(in.SkipSliceKill))
			w.bool(in.Finished)
			encodeInts(&w, in.Entries)
		}
		w.u64(uint64(len(ck.Corr.Queues)))
		for _, q := range ck.Corr.Queues {
			w.u64(q.BranchPC)
			encodeInts(&w, q.Entries)
		}
		w.u64(uint64(len(ck.Corr.Live)))
		for _, l := range ck.Corr.Live {
			w.u64(uint64(l.Slice))
			encodeInts(&w, l.Insts)
		}
	}

	return ck.Mem.AppendTo(w.b)
}

// DecodeCheckpoint parses a stream produced by EncodeBinary. Corrupt input
// yields an error, never a panic or a silently wrong checkpoint (the
// on-disk container's CRC catches flipped bits; this guards truncation and
// structural nonsense). Every accepted stream is canonical: it re-encodes
// to the same bytes.
//
// The memory comes back as the encoding holds it. A checkpoint whose
// memory descends from a root image (every workload's does) decodes to an
// unresolved delta; resolve it with ck.Mem.Rebase(root) before Restore,
// which refuses an unresolved one.
func DecodeCheckpoint(b []byte) (*Checkpoint, error) {
	r := rbuf{b: b}
	ck := &Checkpoint{}
	ck.Now = r.u64()
	ck.Seq = r.u64()
	ck.MainHalted = r.bool()
	ck.WarmRetired = r.u64()
	ck.PC = r.u64()
	for i := range ck.Regs {
		ck.Regs[i] = r.u64()
	}
	ck.Hist = r.u64()
	ck.Path = r.u64()
	ck.ICStallUntil = r.u64()

	nras := r.count(24)
	for i := uint64(0); i < nras && r.err == nil; i++ {
		var rs bpred.RASStackState
		n := r.count(8)
		for j := uint64(0); j < n && r.err == nil; j++ {
			rs.Stack = append(rs.Stack, r.u64())
		}
		rs.SP = int(r.u64())
		ck.ThreadRAS = append(ck.ThreadRAS, rs)
	}

	ck.Dir = decodePredSection(&r)
	ck.Indirect = decodePredSection(&r)

	if r.bool() {
		ck.Conf = r.bytes()
		if ck.Conf == nil && r.err == nil {
			ck.Conf = []uint8{}
		}
	}

	ck.L1D = decodeCacheState(&r)
	ck.L1I = decodeCacheState(&r)
	ck.L2 = decodeCacheState(&r)
	ck.PVB = decodeCacheState(&r)

	ns := r.count(25)
	for i := uint64(0); i < ns && r.err == nil; i++ {
		ck.Pref.Streams = append(ck.Pref.Streams, cache.StreamEntry{
			Valid: r.bool(), NextLine: r.u64(), Dir: int64(r.u64()), LastUse: r.u64(),
		})
	}
	ck.Pref.Clock = r.u64()

	no := r.count(9)
	ck.Hier.Origin = make(map[uint64]cache.Origin, no)
	for i, prev := uint64(0), uint64(0); i < no && r.err == nil; i++ {
		k := r.u64()
		if i > 0 && k <= prev && r.err == nil {
			r.err = fmt.Errorf("cpu: corrupt checkpoint: origin line %#x out of order", k)
		}
		prev = k
		ck.Hier.Origin[k] = cache.Origin(r.u8())
	}
	ck.Hier.MemFree = r.u64()

	if r.bool() {
		st := &slicehw.CorrState{NextID: r.u64()}
		np := r.count(14)
		for i := uint64(0); i < np && r.err == nil; i++ {
			st.Preds = append(st.Preds, slicehw.PredSnap{
				BranchPC: r.u64(), Filled: r.bool(), Dir: r.bool(),
				Used: r.bool(), UsedDir: r.bool(), Killed: r.bool(),
				Inst: int(r.u64()),
			})
		}
		ni := r.count(33)
		for i := uint64(0); i < ni && r.err == nil; i++ {
			in := slicehw.InstSnap{
				ID: r.u64(), Slice: int(r.u64()),
				SkipLoopKill: int(r.u64()), SkipSliceKill: int(r.u64()),
				Finished: r.bool(),
			}
			in.Entries = decodeInts(&r)
			st.Insts = append(st.Insts, in)
		}
		nq := r.count(16)
		for i := uint64(0); i < nq && r.err == nil; i++ {
			q := slicehw.QueueSnap{BranchPC: r.u64()}
			q.Entries = decodeInts(&r)
			st.Queues = append(st.Queues, q)
		}
		nl := r.count(16)
		for i := uint64(0); i < nl && r.err == nil; i++ {
			l := slicehw.LiveSnap{Slice: int(r.u64())}
			l.Insts = decodeInts(&r)
			st.Live = append(st.Live, l)
		}
		ck.Corr = st
	}
	if r.err != nil {
		return nil, r.err
	}

	snap, rest, err := mem.DecodeSnapshot(r.b)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("cpu: checkpoint has %d trailing bytes", len(rest))
	}
	ck.Mem = snap
	return ck, nil
}

// encodePredSection writes one length-prefixed, CRC-guarded predictor
// section: the predictor's spec string and its opaque state blob. The
// container knows no predictor layout — any registered predictor's state
// travels through here unchanged — and the section CRC (covering spec +
// blob) catches a flipped byte even before the blob's own trailer does.
func encodePredSection(w *wbuf, s PredState) {
	var body wbuf
	body.u64(uint64(len(s.Spec)))
	body.b = append(body.b, s.Spec...)
	body.u64(uint64(len(s.Blob)))
	body.b = append(body.b, s.Blob...)
	w.u64(uint64(len(body.b)))
	w.u32(crc32.ChecksumIEEE(body.b))
	w.b = append(w.b, body.b...)
}

func decodePredSection(r *rbuf) PredState {
	n := r.count(1)
	want := r.u32()
	if r.err != nil {
		return PredState{}
	}
	if uint64(len(r.b)) < n {
		r.fail()
		return PredState{}
	}
	body := r.b[:n]
	r.b = r.b[n:]
	if crc32.ChecksumIEEE(body) != want {
		r.err = errors.New("cpu: corrupt checkpoint: predictor section CRC mismatch")
		return PredState{}
	}
	br := rbuf{b: body}
	spec := br.bytes()
	blob := br.bytes()
	if br.err != nil || len(br.b) != 0 {
		r.err = errors.New("cpu: corrupt checkpoint: malformed predictor section")
		return PredState{}
	}
	return PredState{Spec: string(spec), Blob: blob}
}

// encodeCacheState writes a cache level's line count and its valid
// lines; decodeCacheState rejects line indices that are out of range or
// not strictly ascending, so every accepted encoding is canonical.
func encodeCacheState(w *wbuf, s cache.CacheState) {
	w.u64(uint64(s.NumLines))
	w.u64(uint64(len(s.Lines)))
	for _, l := range s.Lines {
		w.u32(l.Index)
		w.u64(l.Tag)
		w.bool(l.Dirty)
		w.u64(l.LRU)
	}
	w.u64(s.Clock)
}

func decodeCacheState(r *rbuf) cache.CacheState {
	s := cache.CacheState{NumLines: int(r.u64())}
	n := r.count(21)
	for i := uint64(0); i < n && r.err == nil; i++ {
		l := cache.LineState{Index: r.u32(), Tag: r.u64(), Dirty: r.bool(), LRU: r.u64()}
		if r.err == nil && (uint64(l.Index) >= uint64(s.NumLines) || i > 0 && l.Index <= s.Lines[i-1].Index) {
			r.err = fmt.Errorf("cpu: corrupt checkpoint: cache line index %d out of order or range", l.Index)
		}
		s.Lines = append(s.Lines, l)
	}
	s.Clock = r.u64()
	return s
}

func encodeInts(w *wbuf, xs []int) {
	w.u64(uint64(len(xs)))
	for _, x := range xs {
		w.u64(uint64(x))
	}
}

func decodeInts(r *rbuf) []int {
	n := r.count(8)
	var xs []int
	for i := uint64(0); i < n && r.err == nil; i++ {
		xs = append(xs, int(r.u64()))
	}
	return xs
}

// wbuf appends little-endian primitives.
type wbuf struct{ b []byte }

func (w *wbuf) u64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *wbuf) u32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *wbuf) u16(v uint16) { w.b = binary.LittleEndian.AppendUint16(w.b, v) }
func (w *wbuf) bool(v bool) {
	if v {
		w.b = append(w.b, 1)
	} else {
		w.b = append(w.b, 0)
	}
}

// rbuf reads little-endian primitives, latching the first error; subsequent
// reads return zero values so decoders need one check at the end.
type rbuf struct {
	b   []byte
	err error
}

var errTruncated = errors.New("cpu: truncated checkpoint")

func (r *rbuf) u64() uint64 {
	if r.err != nil || len(r.b) < 8 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *rbuf) u32() uint32 {
	if r.err != nil || len(r.b) < 4 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

func (r *rbuf) u16() uint16 {
	if r.err != nil || len(r.b) < 2 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint16(r.b)
	r.b = r.b[2:]
	return v
}

func (r *rbuf) u8() uint8 {
	if r.err != nil || len(r.b) < 1 {
		r.fail()
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *rbuf) bool() bool {
	switch r.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		if r.err == nil {
			r.err = errors.New("cpu: corrupt checkpoint: bad bool")
		}
		return false
	}
}

// count reads an element count and rejects streams whose claimed count
// cannot fit in the remaining bytes (minSize bytes per element), so corrupt
// counts fail fast instead of driving huge allocations.
func (r *rbuf) count(minSize int) uint64 {
	n := r.u64()
	if r.err == nil && n > uint64(len(r.b))/uint64(minSize)+1 {
		r.err = fmt.Errorf("cpu: corrupt checkpoint: count %d exceeds remaining data", n)
		return 0
	}
	return n
}

// bytes reads a length-prefixed byte slice.
func (r *rbuf) bytes() []byte {
	n := r.count(1)
	if r.err != nil {
		return nil
	}
	if uint64(len(r.b)) < n {
		r.fail()
		return nil
	}
	v := append([]byte(nil), r.b[:n]...)
	r.b = r.b[n:]
	return v
}

func (r *rbuf) fail() {
	if r.err == nil {
		r.err = errTruncated
	}
}
