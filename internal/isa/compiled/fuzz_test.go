package compiled_test

import (
	"math/rand"
	"testing"

	"repro/internal/isa"
	"repro/internal/isa/compiled"
	"repro/internal/mem"
	"repro/internal/progen"
)

// runCompiledVsInterp executes one random progen program on both engines
// and diffs them two ways:
//
//   - lockstep: Machine.Step against isa.Execute, Outcome-for-Outcome,
//     with the register files compared at every divergence candidate;
//   - chunked: Machine.Run in uneven maxInsts chunks (slicing fused pairs
//     at arbitrary points) against the interpreter's final state.
func runCompiledVsInterp(t *testing.T, seed int64, chunk uint64) {
	rng := rand.New(rand.NewSource(seed))
	im, entry, init := progen.Program(rng)
	prog := compiled.Compile(im)
	const maxSteps = 2_000_000

	// Lockstep pass.
	refMem := mem.New()
	init(refMem)
	ref := &refState{m: refMem}
	maMem := mem.New()
	init(maMem)
	ma := compiled.NewMachine(prog, maMem, entry)

	pc := entry
	steps := 0
	for ; steps < maxSteps; steps++ {
		in, ok := im.At(pc)
		if !ok {
			t.Fatalf("seed %d: reference fell off the image at %#x", seed, pc)
		}
		var want isa.Outcome
		isa.Execute(in, pc, ref, &want)
		var got isa.Outcome
		op, err := ma.Step(&got)
		if err != nil {
			t.Fatalf("seed %d: Step at %#x: %v", seed, pc, err)
		}
		if op != in.Op {
			t.Fatalf("seed %d at %#x: op %v, want %v", seed, pc, op, in.Op)
		}
		if got != want {
			t.Fatalf("seed %d at %#x (%v): outcome mismatch\n got  %+v\n want %+v",
				seed, pc, in.Op, got, want)
		}
		if want.Halt {
			break
		}
		pc = want.NextPC(pc)
		if ma.PC() != pc {
			t.Fatalf("seed %d: pc diverged after %#x: got %#x, want %#x", seed, pc, ma.PC(), pc)
		}
	}
	if steps == maxSteps {
		t.Fatalf("seed %d: program did not halt within %d steps", seed, maxSteps)
	}
	var gotRegs [isa.NumRegs]uint64
	ma.CopyRegs(&gotRegs)
	if gotRegs != ref.regs {
		t.Fatalf("seed %d: lockstep register files diverge\n got  %v\n want %v",
			seed, gotRegs, ref.regs)
	}
	if !maMem.Snapshot().Equal(refMem.Snapshot()) {
		t.Fatalf("seed %d: lockstep memories diverge", seed)
	}

	// Chunked-Run pass against the lockstep-validated final state.
	runMem := mem.New()
	init(runMem)
	mb := compiled.NewMachine(prog, runMem, entry)
	chunk = chunk%37 + 1
	var retired uint64
	for !mb.Halted() {
		n, err := mb.Run(chunk)
		if err != nil {
			t.Fatalf("seed %d chunk %d: Run: %v", seed, chunk, err)
		}
		retired += n
		if retired > maxSteps {
			t.Fatalf("seed %d chunk %d: did not halt within %d insts", seed, chunk, maxSteps)
		}
	}
	if retired != uint64(steps)+1 {
		t.Fatalf("seed %d chunk %d: retired %d, lockstep retired %d", seed, chunk, retired, steps+1)
	}
	if mb.PC() != pc {
		t.Fatalf("seed %d chunk %d: final pc %#x, want %#x", seed, chunk, mb.PC(), pc)
	}
	var runRegs [isa.NumRegs]uint64
	mb.CopyRegs(&runRegs)
	if runRegs != ref.regs {
		t.Fatalf("seed %d chunk %d: Run register files diverge\n got  %v\n want %v",
			seed, chunk, runRegs, ref.regs)
	}
	if !runMem.Snapshot().Equal(refMem.Snapshot()) {
		t.Fatalf("seed %d chunk %d: Run memories diverge", seed, chunk)
	}
}

// TestCompiledVsInterpSeeds is the always-on slice of the fuzzer, so plain
// `go test` differentially covers the generator's whole instruction mix.
func TestCompiledVsInterpSeeds(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			t.Parallel()
			runCompiledVsInterp(t, seed, uint64(seed)*7)
		})
	}
}

// FuzzCompiledVsInterp drives random progen programs through the compiled
// engine in lockstep and in uneven Run chunks, against the isa.Execute
// interpreter as the semantic reference.
func FuzzCompiledVsInterp(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed, uint64(seed)*13)
	}
	f.Fuzz(func(t *testing.T, seed int64, chunk uint64) {
		runCompiledVsInterp(t, seed, chunk)
	})
}
