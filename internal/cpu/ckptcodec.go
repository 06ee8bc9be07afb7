package cpu

import (
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/slicehw"
	"repro/internal/wire"
)

// Deterministic binary codec for Checkpoint. The byte stream is a function
// of the machine state alone: every map is emitted in sorted key order and
// every slice in its semantic order, so encoding the same checkpoint twice
// yields identical bytes (the on-disk store CRCs them). The harness owns
// the file container (magic, schema version, key, CRC); this codec owns
// the header fields, the predictor sections, the confidence table and the
// order of the sections. Every other section is encoded by the package
// that owns its state: return-address stacks by bpred, the cache
// hierarchy by cache, the correlator by slicehw, memory by mem.

// EncodeBinary serializes the checkpoint.
func (ck *Checkpoint) EncodeBinary() []byte {
	var w wire.Writer
	w.U64(ck.Now)
	w.U64(ck.Seq)
	w.Bool(ck.MainHalted)
	w.U64(ck.WarmRetired)
	w.U64(ck.PC)
	for _, r := range ck.Regs {
		w.U64(r)
	}
	w.U64(ck.Hist)
	w.U64(ck.Path)
	w.U64(ck.ICStallUntil)
	bpred.EncodeRASStacks(&w, ck.ThreadRAS)

	encodePredSection(&w, ck.Dir)
	encodePredSection(&w, ck.Indirect)

	w.Bool(ck.Conf != nil)
	if ck.Conf != nil {
		w.Blob(ck.Conf)
	}

	ck.Hier.Encode(&w)

	w.Bool(ck.Corr != nil)
	if ck.Corr != nil {
		ck.Corr.Encode(&w)
	}

	ck.Mem.Encode(&w)
	return w.Bytes()
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
	r := wire.NewReader(b)
	ck := &Checkpoint{}
	ck.Now = r.U64()
	ck.Seq = r.U64()
	ck.MainHalted = r.Bool()
	ck.WarmRetired = r.U64()
	ck.PC = r.U64()
	for i := range ck.Regs {
		ck.Regs[i] = r.U64()
	}
	ck.Hist = r.U64()
	ck.Path = r.U64()
	ck.ICStallUntil = r.U64()
	ck.ThreadRAS = bpred.DecodeRASStacks(r)

	ck.Dir = decodePredSection(r)
	ck.Indirect = decodePredSection(r)

	if r.Bool() {
		ck.Conf = r.Blob()
		if ck.Conf == nil {
			ck.Conf = []uint8{}
		}
	}

	ck.Hier = cache.DecodeHierState(r)

	if r.Bool() {
		ck.Corr = slicehw.DecodeCorrState(r)
	}

	ck.Mem = mem.DecodeSnapshot(r)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("cpu: corrupt checkpoint: %w", err)
	}
	return ck, nil
}

// encodePredSection writes one length-prefixed, CRC-guarded predictor
// section: the predictor's spec string and its opaque state blob. The
// container knows no predictor layout — any registered predictor's state
// travels through here unchanged — and the section CRC (covering spec +
// blob) catches a flipped byte even before the blob's own trailer does.
func encodePredSection(w *wire.Writer, s PredState) {
	var body wire.Writer
	body.Blob([]byte(s.Spec))
	body.Blob(s.Blob)
	b := body.Bytes()
	w.U64(uint64(len(b)))
	w.U32(crc32.ChecksumIEEE(b))
	w.Raw(b)
}

func decodePredSection(r *wire.Reader) PredState {
	n := r.Count(1)
	want := r.U32()
	body := r.Raw(n)
	if r.Err() == nil && crc32.ChecksumIEEE(body) != want {
		r.Fail(errors.New("predictor section CRC mismatch"))
	}
	// Once r has failed it keeps its first error; br's verdict adds nothing.
	br := wire.NewReader(body)
	spec, blob := br.Blob(), br.Blob()
	if br.Done() != nil {
		r.Fail(errors.New("malformed predictor section"))
	}
	return PredState{Spec: string(spec), Blob: blob}
}
