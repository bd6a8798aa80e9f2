package live

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"testing"

	"disttrain/internal/core"
	"disttrain/internal/nn"
	"disttrain/internal/rng"
	"disttrain/internal/xport"
)

// heapAllocated is the bytes the heap has allocated since the process
// started (runtime/metrics' cumulative /gc/heap/allocs:bytes).
func heapAllocated() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// owner is one holder of model-sized vectors in a live run, and how many it
// may allocate.
type owner struct {
	name    string
	vectors float64
}

// TestLiveRunFootprint accounts for the model-sized vectors a 4-rank live
// run allocates, owner by owner, on a 1 M-parameter MLP over loopback TCP:
//
//   - a worker replica: its initial draw (which NewModel moves into the flat
//     store), the flat parameter store and the flat gradient store — three
//     vectors, of which two live;
//   - a velocity only where the loop steps locally: every AR-SGD rank, no
//     ASP rank (the PS steps for it);
//   - an int8 worker: its one encoded-payload buffer (a quarter vector);
//   - the PS: its initial draw, the parameters it adopts from it and its
//     velocity — no model and no gradient store;
//   - the coordinator: an evaluation model with no initial draw and the
//     replica average a decentralized run is evaluated on;
//   - per step: nothing — frame sections, the DONE reports' parameter
//     vectors among them, come from xport's recycler.
//
// The run measured is a warm process's next one: a warm-up run fills the
// recycler and hands its reports' vectors back to it, as a caller done with
// a result may, and the collector stays off so that the pools keep what
// they hold. The recycler may still allocate a section or two beyond the
// warm-up's peak in flight, each up to a quarter larger than a vector (its
// size class). The sum is the budget, with half a vector of slack for
// everything smaller than a vector: sockets, goroutines, activations.
func TestLiveRunFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds buffers at random under the race detector")
	}
	const workers, iters = 4, 8
	for _, tc := range []struct {
		name   string
		algo   core.Algo
		int8   bool
		owners []owner
	}{
		{"asp-int8", core.ASP, true, []owner{
			{"worker initial draws, parameters and gradients", 3 * workers},
			{"worker int8 payload buffers", 0.25 * workers},
			{"PS initial draw, parameters and velocity", 3},
			{"evaluation model", 1},
			{"recycler: two sections beyond the warm-up's peak", 2.5},
		}},
		{"arsgd", core.ARSGD, false, []owner{
			{"worker initial draws, parameters and gradients", 3 * workers},
			{"worker velocities", workers},
			{"evaluation model", 1},
			{"replica average", 1},
			{"recycler: two sections beyond the warm-up's peak", 2.5},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := liveConfig(tc.algo, workers, iters, 5)
			cfg.Quantize8 = tc.int8
			cfg.Real.Factory = func(r *rng.RNG) *nn.Model { return nn.NewMLP(r, 2, 1024, 1024, 3) }
			cfg.Real.Batch = 4
			cfg.Real.EvalMax = 8
			vec := float64(4 * cfg.Real.Factory(nil).NumParams())

			runtime.GC()
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			warm, err := RunLoopback(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range warm.WorkerParams {
				(&xport.Frame{Vec: p}).Release()
			}
			before := heapAllocated()
			if _, err := RunLoopback(cfg); err != nil {
				t.Fatal(err)
			}
			got := float64(heapAllocated()-before) / vec

			var budget float64
			var table strings.Builder
			for _, o := range tc.owners {
				budget += o.vectors
				fmt.Fprintf(&table, "\n  %5.2f  %s", o.vectors, o.name)
			}
			const slack = 0.5
			budget += slack
			t.Logf("allocated %.2f vectors of %.0f bytes; budget %.2f:%s\n  %5.2f  slack", got, vec, budget, table.String(), slack)
			if got > budget {
				t.Fatalf("the run allocated %.2f model-sized vectors, budget %.2f", got, budget)
			}
		})
	}
}
