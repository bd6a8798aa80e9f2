package live

import (
	"disttrain/internal/core"
	"disttrain/internal/fault"
)

// chaos projects a crash schedule onto the live run. It wraps the exact
// injector the simulator builds — same arguments, same seed — so both
// runtimes evaluate the identical pure membership function: which workers
// run which 1-based iteration. That shared function is what lets the live
// coordinator, the PS, and every worker agree on each round's membership
// without exchanging any liveness messages, exactly as the simulator's
// elastic mode does.
//
// Crash times given in seconds are quantized on the simulator's nominal
// iteration clock (Workload.MeanIterSec); live workers die when they reach
// the quantized iteration boundary, and restart delays are served in real
// wall-clock seconds.
type chaos struct {
	cfg *core.Config
	inj *fault.Injector
}

// newChaos compiles cfg's crash schedule; nil when it has none (the
// membership is then the full fixed cohort).
func newChaos(cfg *core.Config) *chaos {
	if cfg.Faults.Empty() || !cfg.Faults.HasKind(fault.Crash) {
		return nil
	}
	inj := fault.NewInjector(cfg.Faults, cfg.Workers, cfg.Cluster.Machines,
		cfg.Workload.MeanIterSec(), cfg.Seed)
	return &chaos{cfg: cfg, inj: inj}
}

// aliveAt reports whether worker w runs iteration it.
func (c *chaos) aliveAt(w, it int) bool { return c.inj.AliveAtIter(w, it) }

// nextAlive returns the first iteration >= it that worker w runs, or 0 if
// it never runs again.
func (c *chaos) nextAlive(w, it int) int { return c.inj.NextAliveIter(w, it) }

// restartDelay is the wall-clock restart sleep for worker w dying at
// iteration it.
func (c *chaos) restartDelay(w, it int) float64 { return c.inj.RestartDelay(w, it) }

// resumedAt reports whether worker w comes back from a dead window exactly
// at iteration it. Peers use this to discard their cached connection to w
// before the first post-restart send — the old socket is half-closed and a
// write on it would be silently lost.
func (c *chaos) resumedAt(w, it int) bool {
	return it > 1 && c.aliveAt(w, it) && !c.aliveAt(w, it-1)
}

// hasCrash reports whether the schedule ever kills worker w within the run.
func (c *chaos) hasCrash(w int) bool {
	for it := 1; it <= c.cfg.Iters; it++ {
		if !c.aliveAt(w, it) {
			return true
		}
	}
	return false
}

// finishes reports whether worker w completes the run (executes the final
// iteration and reports DONE). A worker dead at cfg.Iters never returns.
func (c *chaos) finishes(w int) bool { return c.aliveAt(w, c.cfg.Iters) }

// finisherCount returns how many workers complete the run.
func (c *chaos) finisherCount() int {
	n := 0
	for w := 0; w < c.cfg.Workers; w++ {
		if c.finishes(w) {
			n++
		}
	}
	return n
}

// maxRestart is the largest scheduled restart delay (seconds) for worker w;
// the coordinator's lease watchdog budgets this much extra silence for a
// dead worker awaiting its restart.
func (c *chaos) maxRestart(w int) float64 {
	var d float64
	for it := 1; it <= c.cfg.Iters; it++ {
		if !c.aliveAt(w, it) {
			if r := c.restartDelay(w, it); r > d {
				d = r
			}
		}
	}
	return d
}
