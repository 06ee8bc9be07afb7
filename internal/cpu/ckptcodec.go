package cpu

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/wire"
)

// Deterministic binary codec for Checkpoint. The byte stream is a function
// of the machine state alone: every map is emitted in sorted key order and
// every slice in its semantic order, so encoding the same checkpoint twice
// yields identical bytes (the on-disk store CRCs them). The harness owns
// the file container (magic, schema version, key, CRC); this codec owns
// the scalar header and the order of the sections. The components'
// section is already bytes (Checkpoint.Components, written and checked by
// each component's own Save and Load) and travels behind one length, so
// decoding finds the memory section without parsing it; memory is encoded
// by mem.

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
	w.Blob(ck.Components)
	ck.Mem.Encode(&w)
	return w.Bytes()
}

// DecodeCheckpoint parses a stream produced by EncodeBinary. Corrupt input
// yields an error, never a panic (the on-disk container's CRC catches
// flipped bits; this guards truncation and structural nonsense). Every
// accepted stream re-encodes to the same bytes. The components' section
// is not parsed here: Restore checks it as it loads it, so a decoded
// checkpoint is trusted only once it has restored.
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
	ck.Components = r.Blob()
	ck.Mem = mem.DecodeSnapshot(r)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("cpu: corrupt checkpoint: %w", err)
	}
	return ck, nil
}
