package cpu

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/bpred"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/slicehw"
	"repro/internal/workloads"
)

// makeCheckpoint builds a real checkpoint from a short vpr warm (with
// slices, so the correlator state is populated too).
func makeCheckpoint(t testing.TB) *Checkpoint {
	t.Helper()
	return makeCheckpointCfg(t, Config4Wide())
}

func makeCheckpointCfg(t testing.TB, cfg Config) *Checkpoint {
	t.Helper()
	w := vpr(t)
	c := MustNew(cfg.WarmConfig(), w.Image, w.NewMemory(), w.Entry, w.SliceTable())
	c.Run(20_000)
	ck, err := c.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	return ck
}

func vpr(t testing.TB) *workloads.Workload {
	t.Helper()
	w, err := workloads.ByName("vpr")
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// smallCheckpoint builds a checkpoint from a core whose tables are all
// tiny (small caches, PVB, stream table and predictors) after a short
// loop of loads, stores, branches and calls over one data page. It
// encodes to a few KB against vpr's ~100 KB, so a fuzzer seeded with it
// gets through many more mutations per second. The memory is a delta over
// the returned root; the configuration and image restore it.
func smallCheckpoint(t testing.TB) (*Checkpoint, *mem.Snapshot, Config, *asm.Image) {
	t.Helper()
	const data = 0x40000
	b := asm.NewBuilder(0x1000)
	b.Li(1, data)
	b.Li(2, 64)
	b.Label("loop")
	b.Ld(3, 0, 1)
	b.I(isa.ADDI, 3, 3, 1)
	b.St(3, 0, 1)
	b.I(isa.ANDI, 4, 2, 1)
	b.B(isa.BEQ, 4, "skip")
	b.Call("leaf")
	b.Label("skip")
	b.I(isa.ADDI, 1, 1, 8)
	b.I(isa.ADDI, 2, 2, -1)
	b.B(isa.BGT, 2, "loop")
	b.Halt()
	b.Label("leaf")
	b.R(isa.XOR, 5, 5, 3)
	b.Ret()
	im, err := asm.NewImage(b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	init := mem.New()
	for i := uint64(0); i < 64; i++ {
		init.WriteU64(data+8*i, i)
	}
	root := init.Snapshot()

	cfg := Config4Wide()
	cfg.Mem.L1Bytes, cfg.Mem.ICBytes, cfg.Mem.L2Bytes = 512, 512, 2048
	cfg.Mem.PVBEntries, cfg.Mem.Streams, cfg.Mem.WriteBufEntries = 4, 2, 4
	cfg.BPred = "yags:64,16,6,4"
	cfg.IndirectPred = "cascaded:4,8,8,4"
	c := MustNew(cfg.WarmConfig(), im, mem.NewFromImage(root), 0x1000, nil)
	c.Run(1_000)
	ck, err := c.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	return ck, root, cfg, im
}

// decodeRebased decodes enc and resolves its memory against w's image,
// as the on-disk store does.
func decodeRebased(t *testing.T, w *workloads.Workload, enc []byte) *Checkpoint {
	t.Helper()
	dec, err := DecodeCheckpoint(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if dec.Mem, err = dec.Mem.Rebase(w.MemImage()); err != nil {
		t.Fatalf("rebase: %v", err)
	}
	return dec
}

// TestCodecRoundTrip: encode → decode → rebase must reproduce the
// checkpoint exactly, and re-encoding the decoded copy must be
// byte-identical (the encoding is deterministic, which the disk cache's CRC
// and the CI zero-miss assertion both rely on).
func TestCodecRoundTrip(t *testing.T) {
	w := vpr(t)
	ck := makeCheckpoint(t)
	enc := ck.EncodeBinary()

	dec := decodeRebased(t, w, enc)
	if !ck.Mem.Equal(dec.Mem) {
		t.Error("memory snapshot did not round-trip")
	}
	// Compare everything except Mem (mem.Snapshot holds unexported state;
	// compared above via Equal).
	a, b := *ck, *dec
	a.Mem, b.Mem = nil, nil
	if !reflect.DeepEqual(a, b) {
		av, bv := reflect.ValueOf(a), reflect.ValueOf(b)
		for i := 0; i < av.NumField(); i++ {
			if !reflect.DeepEqual(av.Field(i).Interface(), bv.Field(i).Interface()) {
				t.Errorf("field %s did not round-trip", av.Type().Field(i).Name)
			}
		}
	}

	reenc := dec.EncodeBinary()
	if !bytes.Equal(enc, reenc) {
		t.Error("re-encoding the decoded checkpoint changed the bytes")
	}
}

// TestCodecRestoredCoreMatches: a core restored from the decoded, rebased
// bytes must measure identically to one restored from the original
// checkpoint.
func TestCodecRestoredCoreMatches(t *testing.T) {
	w := vpr(t)
	ck := makeCheckpoint(t)
	dec := decodeRebased(t, w, ck.EncodeBinary())
	cfg := Config4Wide()
	run := func(ck *Checkpoint) any {
		c, err := Restore(cfg, w.Image, ck, w.SliceTable())
		if err != nil {
			t.Fatalf("restore: %v", err)
		}
		c.Run(40_000)
		return c.Snapshot()
	}
	if !reflect.DeepEqual(run(ck), run(dec)) {
		t.Error("decoded checkpoint measures differently than the original")
	}
}

// TestRestoreRejectsUnresolvedMemory: a decoded checkpoint whose memory was
// never rebased holds only the pages warm-up changed; Restore must refuse
// it rather than build a core over a partial image.
func TestRestoreRejectsUnresolvedMemory(t *testing.T) {
	w := vpr(t)
	dec, err := DecodeCheckpoint(makeCheckpoint(t).EncodeBinary())
	if err != nil {
		t.Fatal(err)
	}
	if dec.Mem.Resolved() {
		t.Fatal("a workload checkpoint decoded to a resolved memory; want a delta over the workload image")
	}
	if _, err := Restore(Config4Wide(), w.Image, dec, w.SliceTable()); err == nil ||
		!strings.Contains(err.Error(), "unresolved") {
		t.Errorf("Restore of an unresolved delta: err = %v, want an unresolved-memory error", err)
	}
}

// TestCodecWarmCheckpointsEveryWorkload: for functional and detailed warm
// checkpoints of every workload, encode(ck) == encode(Rebase(Decode(
// encode(ck)))), and rebasing onto another workload's image fails.
func TestCodecWarmCheckpointsEveryWorkload(t *testing.T) {
	const warm = 5_000
	all := workloads.All()
	for i, w := range all {
		other := all[(i+1)%len(all)]
		t.Run(w.Name, func(t *testing.T) {
			cfg := Config4Wide()
			fck, err := FunctionalWarm(cfg, w.Image, w.NewMemory(), w.Entry, warm)
			if err != nil {
				t.Fatalf("functional warm: %v", err)
			}
			c := MustNew(cfg.WarmConfig(), w.Image, w.NewMemory(), w.Entry, w.SliceTable())
			c.Run(warm)
			dck, err := c.Checkpoint()
			if err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
			for _, ck := range []struct {
				kind string
				ck   *Checkpoint
			}{{"functional", fck}, {"detailed", dck}} {
				enc := ck.ck.EncodeBinary()
				if got := decodeRebased(t, w, enc).EncodeBinary(); !bytes.Equal(got, enc) {
					t.Errorf("%s: encode(rebase(decode(enc))) differs from enc", ck.kind)
				}
				dec, err := DecodeCheckpoint(enc)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := dec.Mem.Rebase(other.MemImage()); err == nil {
					t.Errorf("%s: rebase onto %s's image succeeded", ck.kind, other.Name)
				}
			}
		})
	}
}

// TestCodecTruncation: every strict prefix of a valid encoding must fail
// with an error, never panic or mis-decode. (Exhaustive over all lengths;
// the encoding is ~100KB at this warm length, so keep the stride coarse
// away from the ends.)
func TestCodecTruncation(t *testing.T) {
	enc := makeCheckpoint(t).EncodeBinary()
	lengths := []int{0, 1, 2, 7, 8, 9, len(enc) - 1, len(enc) / 2}
	for n := 16; n < len(enc); n += len(enc) / 257 {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		if _, err := DecodeCheckpoint(enc[:n]); err == nil {
			t.Errorf("decoding %d-byte prefix of %d-byte encoding succeeded", n, len(enc))
		}
	}
	// Trailing garbage is also an error, not silently ignored.
	if _, err := DecodeCheckpoint(append(append([]byte{}, enc...), 0xAB)); err == nil {
		t.Error("decoding with trailing garbage succeeded")
	}
}

// TestCodecRoundTripEveryPredictor: the predictor sections are opaque to
// the codec, so a checkpoint warmed under any registered direction
// predictor must round-trip byte-identically and restore into a core that
// checkpoints the same component bytes — this is what lets a new
// predictor land without touching the codec.
func TestCodecRoundTripEveryPredictor(t *testing.T) {
	w := vpr(t)
	for _, name := range bpred.DirNames() {
		cfg := Config4Wide()
		cfg.BPred = name
		ck := makeCheckpointCfg(t, cfg)
		enc := ck.EncodeBinary()
		dec := decodeRebased(t, w, enc)
		if !bytes.Equal(dec.EncodeBinary(), enc) {
			t.Errorf("%s: re-encoding changed the bytes", name)
		}
		r, err := Restore(cfg, w.Image, dec, w.SliceTable())
		if err != nil {
			t.Errorf("%s: restore: %v", name, err)
			continue
		}
		again, err := r.Checkpoint()
		if err != nil {
			t.Fatalf("%s: re-checkpoint: %v", name, err)
		}
		if !bytes.Equal(again.Components, ck.Components) {
			t.Errorf("%s: the restored core's component sections differ", name)
		}
	}
}

// TestCodecPredictorSectionCorruption: a flipped byte anywhere in a
// predictor section (spec or blob) must fail the restore — the section
// CRC guards the checkpoint even before the blob's own trailer is checked.
// The codec does not look inside the section, so the decode succeeds and
// Restore is where the corruption is caught.
func TestCodecPredictorSectionCorruption(t *testing.T) {
	w := vpr(t)
	ck := makeCheckpoint(t)
	enc := ck.EncodeBinary()
	spec := MustNew(Config4Wide(), w.Image, w.NewMemory(), w.Entry, nil).dir.Spec()
	start := bytes.Index(enc, []byte(spec))
	if start < 0 {
		t.Fatal("direction predictor spec not found in the encoding")
	}
	// The spec, the blob's u64 length, the blob.
	end := start + len(spec) + 8 + int(binary.LittleEndian.Uint64(enc[start+len(spec):]))
	for off := start; off < end; off += 13 {
		bad := append([]byte(nil), enc...)
		bad[off] ^= 0x01
		dec := decodeRebased(t, w, bad)
		if _, err := Restore(Config4Wide(), w.Image, dec, w.SliceTable()); err == nil {
			t.Fatalf("flipped byte at offset %d (section %d..%d) not detected", off, start, end)
		}
	}
}

// fuzzTarget is what a fuzzed checkpoint restores against: a root image
// for its memory, and the configuration, program image and slice table
// its seed was warmed under.
type fuzzTarget struct {
	root  *mem.Snapshot
	cfg   Config
	image *asm.Image
	table *slicehw.Table
}

// FuzzDecodeCheckpoint: no input makes decode, rebase or restore panic,
// and every input that decodes, rebases and restores is canonical: the
// restored core checkpoints back to the same bytes, apart from
// WarmRetired (the retired count of the run that built the checkpoint,
// which Restore ignores). Seeded with a real vpr encoding and a
// small-geometry one (smallCheckpoint), each whole, truncated and
// bit-flipped.
func FuzzDecodeCheckpoint(f *testing.F) {
	small, smallRoot, smallCfg, smallImage := smallCheckpoint(f)
	w := vpr(f)
	targets := []fuzzTarget{
		{w.MemImage(), Config4Wide(), w.Image, w.SliceTable()},
		{smallRoot, smallCfg, smallImage, nil},
	}
	for _, enc := range [][]byte{makeCheckpoint(f).EncodeBinary(), small.EncodeBinary()} {
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
		f.Add(enc[:len(enc)-1])
		for _, off := range []int{0, 9, len(enc) / 3, len(enc) - 4097, len(enc) - 1} {
			bad := append([]byte(nil), enc...)
			bad[off] ^= 0x10
			f.Add(bad)
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		ck, err := DecodeCheckpoint(b)
		if err != nil {
			return
		}
		if !bytes.Equal(ck.EncodeBinary(), b) {
			t.Fatal("an accepted encoding does not re-encode to itself")
		}
		for _, tg := range targets {
			m, err := ck.Mem.Rebase(tg.root)
			if err != nil {
				continue
			}
			if !m.Resolved() {
				t.Fatal("rebase succeeded but left the memory unresolved")
			}
			rck := *ck
			rck.Mem = m
			c, err := Restore(tg.cfg, tg.image, &rck, tg.table)
			if err != nil {
				continue
			}
			again, err := c.Checkpoint()
			if err != nil {
				t.Fatalf("re-checkpoint of a restored core: %v", err)
			}
			again.WarmRetired = ck.WarmRetired
			if !bytes.Equal(again.EncodeBinary(), b) {
				t.Fatal("a restored checkpoint does not re-checkpoint to the same bytes")
			}
		}
	})
}
