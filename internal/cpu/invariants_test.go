package cpu

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/workloads"
)

// invariantTestCore builds a core mid-run: halted programs release all
// their in-flight state, so the corruption tests stop the core while the
// pipeline is still full.
func invariantTestCore(t *testing.T) *Core {
	t.Helper()
	b := asm.NewBuilder(0x1000)
	b.Li(27, 0x40000)
	b.I(isa.LDI, 1, 0, 10000)
	b.Label("loop")
	b.R(isa.ADD, 2, 2, 1)
	b.St(2, 0, 27)
	b.Ld(3, 0, 27)
	b.R(isa.XOR, 4, 3, 2)
	b.I(isa.ADDI, 1, 1, -1)
	b.B(isa.BGT, 1, "loop")
	b.Halt()
	p := b.MustBuild()
	im, err := asm.NewImage(p)
	if err != nil {
		t.Fatal(err)
	}
	c := MustNew(Config4Wide(), im, mem.New(), p.Base, nil)
	c.Run(500)
	if c.Done() || c.main.rob.len() == 0 {
		t.Fatal("test core drained; corruption checks need a live pipeline")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("clean core failed invariants: %v", err)
	}
	return c
}

// TestCheckInvariantsDetectsCorruption mutates one structure per case and
// requires the checker to flag it — proof the oracle's per-N-cycle sweep
// is not vacuously green.
func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(c *Core)
		want    string // substring of the expected violation
	}{
		{
			name:    "window-accounting",
			corrupt: func(c *Core) { c.window++ },
			want:    "window",
		},
		{
			name: "pooled-live-inst",
			corrupt: func(c *Core) {
				// Recycle a live ROB entry without releasing it.
				c.pool = append(c.pool, c.main.rob.front())
			},
			want: "pool",
		},
		{
			name: "writer-chain-cycle",
			corrupt: func(c *Core) {
				for r := 0; r < isa.NumRegs; r++ {
					if w := c.main.lastWriter[r].live(); w != nil && !w.Retired {
						w.prevWriter = w.ref() // self-loop
						return
					}
				}
				t.Skip("no live writer chain at the stop point")
			},
			want: "writer chain",
		},
		{
			name: "store-queue-lost-undo",
			corrupt: func(c *Core) {
				if c.progs[0].mainStores.len() == 0 {
					t.Skip("no in-flight stores at the stop point")
				}
				c.progs[0].mainStores.front().undoMemValid = false
			},
			want: "mainStores",
		},
		{
			name: "store-queue-out-of-order",
			corrupt: func(c *Core) {
				q := &c.progs[0].mainStores
				if q.len() < 2 {
					t.Skip("fewer than two in-flight stores at the stop point")
				}
				i, j := q.head, (q.head+1)&(len(q.buf)-1)
				q.buf[i], q.buf[j] = q.buf[j], q.buf[i]
			},
			want: "mainStores out of order",
		},
		{
			name: "store-queue-missing-store",
			corrupt: func(c *Core) {
				if c.progs[0].mainStores.len() == 0 {
					t.Skip("no in-flight stores at the stop point")
				}
				c.progs[0].mainStores.popBack()
			},
			want: "missing from mainStores",
		},
		{
			name: "ready-list-stale",
			corrupt: func(c *Core) {
				for _, r := range c.ready {
					if d := r.live(); d != nil {
						d.waitCount = 1
						return
					}
				}
				t.Skip("no live ready entry at the stop point")
			},
			want: "ready",
		},
		{
			name: "ready-list-live-ref-to-pooled",
			corrupt: func(c *Core) {
				// A retired instruction keeps its Seq in the pool, so a
				// reference taken before it retired still reads live.
				c.ready = insertBySeq(c.ready, pooledRetired(t, c).ref())
			},
			want: "is a pooled instruction",
		},
		{
			name: "waiter-live-ref-to-pooled",
			corrupt: func(c *Core) {
				d := c.main.rob.back()
				d.waiters = append(d.waiters, pooledRetired(t, c).ref())
			},
			want: "is a pooled instruction",
		},
		{
			name: "pooled-stale-tail",
			corrupt: func(c *Core) {
				if len(c.pool) == 0 {
					t.Skip("empty pool at the stop point")
				}
				// A truncation that forgot to nil the dropped slot: scrub
				// clears only [:len], so the pointer would stay pinned.
				d := c.pool[0]
				d.waiters = append(d.waiters[:0], c.main.rob.front().ref())[:0]
			},
			want: "past len",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := invariantTestCore(t)
			tc.corrupt(c)
			err := c.CheckInvariants()
			if err == nil {
				t.Fatal("corruption not detected")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("violation %q does not mention %q", err, tc.want)
			}
		})
	}
}

// pooledRetired returns a retired instruction waiting in the pool for
// reuse, whose Seq still matches any reference taken to it.
func pooledRetired(t *testing.T, c *Core) *DynInst {
	t.Helper()
	for _, d := range c.pool {
		if d.Retired && !d.Squashed {
			return d
		}
	}
	t.Skip("no retired instruction in the pool at the stop point")
	return nil
}

// TestPooledSliceTailsNil pins the length-only scrub's precondition on
// real slice-heavy runs: at every stop point, CheckInvariants finds only
// zero slots in [len:cap] of each pooled instruction's KillRecs and
// waiters. The run must actually fork slices and recycle
// instructions, or the check is vacuous.
func TestPooledSliceTailsNil(t *testing.T) {
	for _, name := range []string{"mcf", "gcc", "vpr"} {
		t.Run(name, func(t *testing.T) {
			w, err := workloads.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			c := MustNew(Config4Wide(), w.Image, w.NewMemory(), w.Entry, w.SliceTable())
			pooled := 0
			for n := uint64(1000); n <= 20_000; n += 1000 {
				c.Run(n) // Run's target is cumulative
				if err := c.CheckInvariants(); err != nil {
					t.Fatalf("after %d instructions: %v", n, err)
				}
				pooled += len(c.pool)
			}
			if pooled == 0 || c.S.Forks == 0 {
				t.Fatalf("pooled %d instructions over %d forks; the tail check covered nothing", pooled, c.S.Forks)
			}
		})
	}
}
