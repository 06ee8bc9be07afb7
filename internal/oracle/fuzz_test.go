package oracle_test

import (
	"math/rand"
	"testing"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/oracle"
	"repro/internal/progen"
)

// runOracleSeed runs one random program on the out-of-order core with the
// oracle attached: every retirement is diffed in lockstep against the
// functional model, the invariant sweep runs throughout, and after the
// drain the whole register file and the data arena must match. This
// subsumes the old end-state-only differential fuzzer — a transient bug
// now fails at the retirement where it happens, with the instruction and
// field in the report, instead of as an end-state register diff millions
// of instructions later.
func runOracleSeed(t testing.TB, seed int64, wide bool) {
	rng := rand.New(rand.NewSource(seed))
	im, entry, init := progen.Program(rng)

	coreMem := mem.New()
	init(coreMem)
	cfg := cpu.Config4Wide()
	if wide {
		cfg = cpu.Config8Wide()
	}
	core := cpu.MustNew(cfg, im, coreMem, entry, nil)

	orcMem := mem.New()
	init(orcMem)
	// Sweep aggressively: these programs retire quickly, and the fuzzer
	// should exercise the invariant checker mid-flight, not just the diff.
	o := oracle.New(im, orcMem, entry, oracle.Options{Every: 64})
	o.Attach(core)

	core.Run(1 << 40)
	if !core.Done() {
		t.Fatalf("seed %d: did not halt", seed)
	}
	if err := core.CheckInvariants(); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if err := o.VerifyFinal(core); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if core.S.MainRetired != o.Retired() {
		t.Fatalf("seed %d: core retired %d, oracle observed %d", seed, core.S.MainRetired, o.Retired())
	}
	// Memory must agree too: the per-store diff already checked every
	// store's address and value, so this pins the core's write-back path.
	for a := uint64(progen.Arena); a < progen.Arena+progen.ArenaSlots*8; a += 8 {
		if cv, ov := coreMem.ReadU64(a), o.Mem().ReadU64(a); cv != ov {
			t.Fatalf("seed %d: mem[%#x] = %#x vs %#x", seed, a, cv, ov)
		}
	}
}

// TestFuzzOracle runs many random programs under the oracle and requires
// zero divergences on each.
func TestFuzzOracle(t *testing.T) {
	n := 60
	if testing.Short() {
		n = 10
	}
	for seed := 0; seed < n; seed++ {
		runOracleSeed(t, int64(seed), seed%3 == 1)
	}
}

// FuzzOracle is the native-fuzzing entry: the corpus is the
// program-generator seed plus the machine choice, so `go test -fuzz`
// explores programs beyond the fixed seeds.
func FuzzOracle(f *testing.F) {
	for seed := int64(0); seed < 6; seed++ {
		f.Add(seed, seed%3 == 1)
	}
	f.Fuzz(func(t *testing.T, seed int64, wide bool) { runOracleSeed(t, seed, wide) })
}

// TestFunctionalAgreesWithOracle cross-checks an oracle-validated core run
// against cpu.RunFunctional on the same program: the retired counts and
// the final register files must agree.
func TestFunctionalAgreesWithOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	im, entry, init := progen.Program(rng)
	m := mem.New()
	init(m)
	ref, err := cpu.RunFunctional(im, m, entry, 1<<40)
	if err != nil {
		t.Fatal(err)
	}

	coreMem := mem.New()
	init(coreMem)
	core := cpu.MustNew(cpu.Config4Wide(), im, coreMem, entry, nil)
	orcMem := mem.New()
	init(orcMem)
	o := oracle.New(im, orcMem, entry, oracle.Options{})
	o.Attach(core)
	core.Run(1 << 40)
	if err := o.VerifyFinal(core); err != nil {
		t.Fatal(err)
	}
	if o.Retired() != ref.Retired {
		t.Fatalf("oracle observed %d retirements, functional reference %d", o.Retired(), ref.Retired)
	}
	for r := 1; r < isa.NumRegs; r++ {
		if core.Main().Regs[r] != ref.Regs[r] {
			t.Fatalf("r%d = %#x, functional reference %#x", r, core.Main().Regs[r], ref.Regs[r])
		}
	}
}
