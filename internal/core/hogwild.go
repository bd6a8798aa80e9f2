package core

import (
	"fmt"

	"disttrain/internal/des"
	"disttrain/internal/metrics"
)

// Hogwild is lock-free shared-memory parallel SGD (Recht et al., NIPS'11 —
// the paper's reference [24], reviewed among its ten candidate algorithms
// but not selected because it is a single-machine scheme). All workers
// update ONE shared parameter vector with no synchronization at all: a
// worker reads the parameters, computes a gradient while other workers keep
// updating, and applies its (now stale) gradient directly. Included as an
// extension: it isolates pure update staleness from every network effect,
// since no messages cross any link.
const Hogwild Algo = "hogwild"

// runHogwild shares replica 0's model and optimizer across all workers.
// Staleness is modeled faithfully: the gradient is computed from the
// parameters as of the *start* of the compute phase and applied at its end,
// after other workers' interleaved updates.
func runHogwild(x *exp) {
	cfg := x.cfg

	// Alias every replica onto worker 0's model/optimizer (real mode).
	if x.reps[0].mathOn() {
		for w := 1; w < cfg.Workers; w++ {
			x.reps[w].model = x.reps[0].model
			x.reps[w].localO = x.reps[0].localO
		}
	}

	for w := 0; w < cfg.Workers; w++ {
		w := w
		x.eng.Spawn(fmt.Sprintf("hogwild-worker%d", w), func(p *des.Proc) {
			wl := cfg.Workload
			for it := 1; it <= cfg.Iters; it++ {
				// Fault schedules are rejected for Hogwild in Validate; the
				// gate only serves context cancellation here.
				nit, ok := x.gate(p, w, it)
				if !ok {
					break
				}
				it = nit
				// Gradient from the shared parameters as they are NOW. The
				// aliased replicas share the model's one gradient store too,
				// so the copy is what keeps this worker's gradient its own
				// while the others' passes overwrite the store during the
				// sleep below.
				grads := x.reps[w].ComputeGrad()
				var gcopy []float32
				if grads != nil {
					gcopy = append([]float32(nil), grads...)
				}
				// ...then the compute time elapses while others update...
				start := p.Now()
				p.Sleep(wl.MeanIterSec() * wl.SampleMult(x.streams[w].Jitter))
				x.col.Workers[w].Breakdown.Add(metrics.Compute, p.Now()-start)
				x.noteIterSpread()
				// ...and the stale gradient lands on the shared vector.
				x.reps[w].LocalStep(gcopy, 1, cfg.LR.At(it-1))
				x.iterDone(w, it)
			}
			x.finish(w)
		})
	}
}
