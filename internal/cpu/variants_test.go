package cpu

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/slicehw"
)

func runMini(t *testing.T, w miniWorkload, cfg Config) *Core {
	t.Helper()
	m := mem.New()
	w.initMem(m)
	core := MustNew(cfg, w.image, m, w.entry, slicehw.MustTable(w.slices))
	core.Run(1 << 40)
	if !core.Done() {
		t.Fatal("run did not complete")
	}
	return core
}

func TestConfidenceEstimator(t *testing.T) {
	c := newConfidence(256, 8)
	pc := uint64(0x1000)
	if c.confident(pc) {
		t.Error("cold PC must be low-confidence")
	}
	for i := 0; i < 8; i++ {
		c.observe(pc, false)
	}
	if !c.confident(pc) {
		t.Error("8 good executions must reach confidence")
	}
	c.observe(pc, true) // one PDE resets
	if c.confident(pc) {
		t.Error("a PDE must reset confidence")
	}
	// Saturation: many good executions never overflow.
	for i := 0; i < 1000; i++ {
		c.observe(pc, false)
	}
	if !c.confident(pc) {
		t.Error("saturated counter lost confidence")
	}
}

func TestConfidenceGateSuppressesForks(t *testing.T) {
	w := buildMini(t, 300)

	base := runMini(t, w, Config4Wide())
	gated := Config4Wide()
	gated.ConfidenceGatedForks = true
	g := runMini(t, w, gated)

	// The mini kernel's problem branch stays unbiased, so most forks
	// survive the gate — but some instructions behave well transiently
	// and a few forks must be suppressed.
	if g.S.ForksGated == 0 {
		t.Error("gate never fired")
	}
	if g.S.Forks == 0 {
		t.Error("gate suppressed every fork")
	}
	_ = base
}

func TestConfidenceGateOnPredictableKernel(t *testing.T) {
	// A kernel whose covered branch is fully biased: after warm-up the
	// gate should suppress essentially all forks, removing slice
	// overhead (vortex's situation in §6.2/§6.3).
	w := buildMini(t, 300)
	cfg := Config4Wide()
	cfg.ConfidenceGatedForks = true
	cfg.Perfect.AllBranches = true // covered branch never mispredicts
	cfg.Perfect.AllLoads = true    // covered loads never miss
	core := runMini(t, w, cfg)
	if core.S.ForksGated == 0 {
		t.Fatal("no forks gated on a perfectly behaved kernel")
	}
	if core.S.Forks > core.S.ForksGated/2 {
		t.Errorf("gate too weak: %d forks vs %d gated", core.S.Forks, core.S.ForksGated)
	}
}

func TestVariantsCompose(t *testing.T) {
	// All the §6.3 variants together still complete and stay exact.
	w := buildMini(t, 200)
	cfg := Config8Wide()
	cfg.ConfidenceGatedForks = true
	core := runMini(t, w, cfg)
	m := mem.New()
	w.initMem(m)
	ref, err := RunFunctional(w.image, m, w.entry, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	if core.S.MainRetired != ref.Retired {
		t.Errorf("retired %d vs reference %d", core.S.MainRetired, ref.Retired)
	}
}
