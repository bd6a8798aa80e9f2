package live

import (
	"disttrain/internal/core"
	"disttrain/internal/fault"
	"disttrain/internal/xport"
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

// peerDropper is the optional transport capability chaos needs: discard a
// cached connection so the next send redials. TCPNet implements it; the
// channel transport (which cannot lose bytes) does not and needs nothing.
type peerDropper interface{ DropPeer(int) }

// dropIfResumed discards ep's cached connection to worker w when w comes back
// from a dead window exactly at iteration it. The old socket is half-closed
// on w's side and a write on it could be silently lost, so the first exchange
// with w after its restart must start on a fresh dial.
func (c *chaos) dropIfResumed(ep xport.Endpoint, w, it int) {
	pd, ok := ep.(peerDropper)
	if ok && c != nil && it > 1 && c.inj.AliveAtIter(w, it) && !c.inj.AliveAtIter(w, it-1) {
		pd.DropPeer(w)
	}
}

// firstDeath is the first iteration >= from that worker w does not run, or
// 0 if it runs every one to the end of the run.
func (c *chaos) firstDeath(w, from int) int {
	for it := from; it <= c.cfg.Iters; it++ {
		if !c.inj.AliveAtIter(w, it) {
			return it
		}
	}
	return 0
}

// hasCrash reports whether the schedule ever kills worker w within the run;
// never without a crash schedule (nil c).
func (c *chaos) hasCrash(w int) bool { return c != nil && c.firstDeath(w, 1) != 0 }

// finishes reports whether worker w completes the run (executes the final
// iteration and reports DONE). A worker dead at cfg.Iters never returns.
func (c *chaos) finishes(w int) bool { return c.inj.AliveAtIter(w, c.cfg.Iters) }

// maxRestart is the largest scheduled restart delay (seconds) for worker w;
// the coordinator's lease watchdog budgets this much extra silence for a
// dead worker awaiting its restart.
func (c *chaos) maxRestart(w int) float64 {
	var d float64
	for it := 1; it <= c.cfg.Iters; it++ {
		d = max(d, c.inj.RestartDelay(w, it)) // 0 where w is alive
	}
	return d
}
