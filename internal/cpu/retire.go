package cpu

import (
	"repro/internal/bpred"
	"repro/internal/isa"
	"repro/internal/stats"
)

// retireStage commits completed instructions in order, main threads first.
// Predictor training, PDE attribution, and store write-back all happen
// here, on the architecturally correct path only. The commit width is shared
// across programs; main threads drain in thread-index (program slot)
// order, which keeps multi-programmed retirement deterministic.
func (c *Core) retireStage() {
	retired := 0
	// Mains first, then helpers (helper "retirement" just drains the
	// window; slices have no architectural state). Thread slots are laid
	// out mains-first, so plain index order is that order.
	for _, t := range c.threads {
		if !t.Alive {
			continue
		}
		for retired < c.cfg.Width && t.rob.len() > 0 {
			di := t.rob.front()
			if !di.Completed || di.CompleteCycle > c.now {
				break
			}
			if t.IsMain && di.Static.IsStore() && !di.Out.Fault {
				if !c.hier.StoreRetire(t.prog.physAddr(di.Out.Addr), c.now) {
					t.prog.S.RetireStalls++
					if c.tracer != nil {
						c.emit(stats.Event{Kind: stats.EvRetireStall, PC: di.PC, Addr: di.Out.Addr})
					}
					break // write buffer full; retry next cycle
				}
			}
			t.rob.popFront()
			c.retireInst(di)
			retired++
		}
	}
}

func (c *Core) retireInst(di *DynInst) {
	di.Retired = true
	t := di.Thread
	p := t.prog
	c.window--
	if !t.IsMain {
		c.helperWindow--
	}
	// The instruction's RAS checkpoint can never be restored again; commit
	// it so the repair journal stays bounded by in-flight pushes.
	t.RAS.Commit(di.RASAfter)

	if !t.IsMain {
		p.S.HelperRetired++
		c.releaseRetired(di)
		return
	}

	p.S.MainRetired++
	if c.RetireObserver != nil {
		// The differential oracle sees the committed stream here, while
		// the instruction's outcome and undo state are still intact.
		// retiring exempts di from the invariant checker's liveness
		// checks: it is popped from the ROB but not yet released.
		c.retiring = di
		c.RetireObserver(di)
		c.retiring = nil
	}
	in := di.Static
	pc := di.PC
	st := p.static(di.row, pc)
	st.Execs++

	switch {
	case in.IsLoad():
		st.IsLoad = true
		p.S.Loads++
		miss := !di.forwarded && !di.PerfectLoad && !di.Out.Fault &&
			di.MemResult.Latency > c.cfg.Mem.LatL1
		if miss {
			st.Misses++
			p.S.LoadMisses++
		}
		if p.conf != nil {
			p.conf.observe(pc, miss)
		}
		if di.MemResult.HelperCovered {
			p.S.MissesCovered++
		}

	case in.IsCondBranch():
		st.IsBranch = true
		p.S.Branches++
		if di.Out.Taken {
			st.Taken++
		}
		if di.Mispredicted {
			st.Mispredicts++
			p.S.Mispredicts++
		}
		if p.conf != nil {
			p.conf.observe(pc, di.Mispredicted)
		}
		// Train the conventional predictor with the true history. Value
		// observation comes first, mirroring program order: the source
		// value existed before the outcome resolved. The shared tables are
		// indexed through the program's PC salt, matching predictCtrl.
		if !di.row.perfectBranch {
			if c.dirVal != nil {
				c.dirVal.ObserveValue(p.saltPC(pc), condOf(in.Op), di.CondVal)
			}
			c.dir.Update(p.saltPC(pc), di.HistBefore, di.Out.Taken)
		}
		// Slice-prediction accounting (Table 4).
		if pr := di.UsedPred.Live(); pr != nil && di.UsedOverride {
			p.S.PredsUsed++
			if pr.UsedDir == di.Out.Taken {
				p.S.PredsCorrect++
			} else {
				p.S.PredsIncorrect++
			}
		} else if pr != nil {
			p.S.PredsLateUsed++
		}

	case in.Op == isa.JMP || in.Op == isa.CALLR:
		p.S.IndirectJumps++
		if di.Mispredicted || di.NoTargetPred {
			p.S.IndirectMisses++
		}
		if !di.row.perfectBranch {
			c.indirect.Update(p.saltPC(pc), di.PathBefore, di.Out.Target)
		}

	case di.Out.Halt:
		p.halted = true
	}

	if p.corr != nil {
		for _, rec := range di.KillRecs {
			p.corr.CommitKill(rec)
		}
	}

	if in.IsStore() {
		p.mainStores.popFront()
	}
	c.releaseRetired(di)
}

// condOf maps a conditional-branch opcode onto the bpred condition enum
// (value predictors evaluate predicted source values through it).
func condOf(op isa.Op) bpred.Cond {
	switch op {
	case isa.BEQ:
		return bpred.CondEQ
	case isa.BNE:
		return bpred.CondNE
	case isa.BLT:
		return bpred.CondLT
	case isa.BLE:
		return bpred.CondLE
	case isa.BGT:
		return bpred.CondGT
	case isa.BGE:
		return bpred.CondGE
	}
	return bpred.CondNone
}
