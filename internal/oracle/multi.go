package oracle

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/cpu"
	"repro/internal/mem"
)

// MultiOracle validates a multi-programmed core: one private functional
// model per program slot, with retirements routed to the matching model
// by the retiring thread's program index. Each program's architectural
// stream is program-order within its own main thread, so each leg is
// exactly the single-program lockstep diff — contention between programs
// changes timing, never architecture, and a divergence in any leg is a
// real bug. The structural invariant sweep is whole-core, so only leg 0
// runs it; the other legs do the stream diff only.
type MultiOracle struct {
	legs []*Oracle
	core *cpu.Core
}

// ProgSeed seeds one program slot's functional model. Mem must be the
// oracle's own copy of the program's initial memory — the model mutates
// it with every store — and Name labels that slot's divergence reports
// (typically the workload name).
type ProgSeed struct {
	Image *asm.Image
	Mem   *mem.Memory
	Entry uint64
	Name  string
}

// NewMulti builds one oracle leg per program slot, in spec order. The
// slot order must match the cpu.NewMulti spec order, since retirements
// are routed by program index.
func NewMulti(seeds []ProgSeed, opt Options) *MultiOracle {
	m := &MultiOracle{}
	for i, s := range seeds {
		po := opt
		if s.Name != "" {
			po.Workload = fmt.Sprintf("%s[p%d]", s.Name, i)
		}
		if i > 0 {
			po.Every = -1 // the sweep is whole-core; leg 0 owns it
		}
		m.legs = append(m.legs, New(s.Image, s.Mem, s.Entry, po))
	}
	return m
}

// Attach installs the multi-oracle as the core's retire observer. The
// core must be the cpu.NewMulti instance whose spec order matches the
// seed order.
func (m *MultiOracle) Attach(c *cpu.Core) {
	if n := c.NumPrograms(); n != len(m.legs) {
		panic(fmt.Sprintf("oracle: %d legs attached to a %d-program core", len(m.legs), n))
	}
	m.core = c
	for _, o := range m.legs {
		o.core = c
		if o.every > 0 {
			o.nextSweep = c.Now() + o.every
		}
	}
	c.RetireObserver = m.OnRetire
}

// OnRetire routes one retired main-thread instruction to the leg owning
// the retiring program. Exported so tests can wrap it to inject faults.
func (m *MultiOracle) OnRetire(di *cpu.DynInst) {
	m.legs[di.Thread.ProgIndex()].OnRetire(di)
}

// Leg exposes program i's oracle (per-program retired counts and final
// memory images in tests).
func (m *MultiOracle) Leg(i int) *Oracle { return m.legs[i] }

// Divergences returns every leg's reports, in slot order.
func (m *MultiOracle) Divergences() []Divergence {
	var divs []Divergence
	for _, o := range m.legs {
		divs = append(divs, o.divs...)
	}
	return divs
}

// Err returns nil when every leg ran clean, else a *DivergenceError
// carrying all recorded reports in slot order and every leg's count of
// reports past its cap.
func (m *MultiOracle) Err() error {
	divs := m.Divergences()
	if len(divs) == 0 {
		return nil
	}
	e := &DivergenceError{Divs: divs}
	for _, o := range m.legs {
		e.Dropped += o.dropped
	}
	return e
}

// VerifyFinal compares every program's drained register file against its
// functional model. Only valid once the core is fully drained.
func (m *MultiOracle) VerifyFinal(c *cpu.Core) error {
	if err := m.Err(); err != nil {
		return err
	}
	if !c.Done() {
		return fmt.Errorf("oracle: VerifyFinal on a core that is not drained")
	}
	for i, o := range m.legs {
		o.verifyFinalRegs(c.ProgMain(i))
	}
	return m.Err()
}
